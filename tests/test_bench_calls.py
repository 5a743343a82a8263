"""The benchmark calls the package through ``bench/worker.py``, positionally
and by name.  This test runs the worker's ``prepare`` and the call it builds
on every item of the ``asym-mixed`` pool (1600 calls, about 0.3 s) and of
the ``exact-large`` pool (700 exact 3j, 6j and 15j, about 1 s; every one
passes through the factorial ledger), and checks each value against the
pool's reference and tolerance, or each error against its class.  It also runs the ``fig4-cold`` unit, the
reference study, and checks it with the benchmark's own ``fig4_problems``.
So a cut signature, a renamed public function or a drift in the asymptotic
values or the fig4 panels fails here and not only in a benchmark run.  A
sha256 over every ``asym-mixed`` outcome (value, diagnostics, error) is
pinned as well, so a change that moves one bit of one of them fails too.
``bench/`` is imported as it is and nothing is written there.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
from pathlib import Path

import pytest

from wigner_asym.errors import WignerAsymError

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def worker(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    yield importlib.import_module("worker")
    for name in ("worker", "spans", "workloads", "run"):
        sys.modules.pop(name, None)


@pytest.mark.parametrize("workload", ["exact-large", "asym-mixed"])
def test_worker_calls_match_package_signatures(worker, workload):
    pool = json.loads((BENCH / "data" / f"{workload}.json").read_text(encoding="utf-8"))
    items = [(name, item) for name, stratum in sorted(pool["strata"].items())
             for item in stratum["items"]]
    assert len(items) == {"exact-large": 700, "asym-mixed": 1600}[workload]
    for name, item in items:
        fn, reduce = worker.prepare(item, "")
        try:
            value = reduce(fn())
        except WignerAsymError as exc:
            assert item.get("err") in worker.error_names(exc), (name, exc)
            continue
        assert "err" not in item, name
        if "tol" in item:
            assert abs(value - item["ref"]) <= item["tol"], name
        else:
            assert value == item["ref"], name


def test_fig4_unit_matches_bench_reference(worker, tmp_path):
    """``verify fig4`` through the worker's call: every check line, and
    every panel cell against ``data/fig4-cold.json`` within the benchmark's
    bounds (exact 1e-12, asymptotic 1e-9 of the panel's largest value)."""
    run = importlib.import_module("run")
    [item] = run.unit_items("fig4-cold", 1, 0)
    fn, reduce = worker.prepare(item, str(tmp_path))
    assert reduce is None
    problems = run.fig4_problems({"value": fn()}, tmp_path, run.load_pool("fig4-cold"))
    assert problems == []


#: sha256 over every ``asym-mixed`` pool item: its value's repr and
#: ``vars(diag)``, or its error class and arguments.  Pinned so that a
#: refactor of the asymptotic layer that moves any bit of any value,
#: diagnostic field or error message fails here, not only beyond the
#: pool's 1e-9 tolerance.
ASYM_MIXED_SHA256 = "fd4af55a81717d9dc42dd931a9d0cd57a51117cf29261f603093d5d76dc36b30"


def test_asym_mixed_pool_digest_is_pinned(worker):
    pool = json.loads((BENCH / "data" / "asym-mixed.json").read_text(encoding="utf-8"))
    digest = hashlib.sha256()
    for name, stratum in sorted(pool["strata"].items()):
        for item in stratum["items"]:
            fn, _ = worker.prepare(item, "")
            try:
                out = fn()
            except WignerAsymError as exc:
                record = (type(exc).__name__, exc.args)
            else:
                value, diag = out if isinstance(out, tuple) else (out, None)
                record = (value, None if diag is None else vars(diag))
            digest.update(f"{name}|{record!r}\n".encode())
    assert digest.hexdigest() == ASYM_MIXED_SHA256
