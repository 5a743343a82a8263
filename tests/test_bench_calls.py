"""The benchmark calls the package through ``bench/worker.py``, positionally
and by name.  This test runs the worker's ``prepare`` and the call it builds
on the first item of every stratum of the two pooled workloads, so a cut
signature or a renamed public function fails here and not only in a
benchmark run.  ``bench/`` is imported as it is and nothing is written there.
"""

from __future__ import annotations

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
    for name in ("worker", "spans", "workloads"):
        sys.modules.pop(name, None)


@pytest.mark.parametrize("workload", ["exact-large", "asym-mixed"])
def test_worker_calls_match_package_signatures(worker, workload):
    pool = json.loads((BENCH / "data" / f"{workload}.json").read_text(encoding="utf-8"))
    for name, stratum in sorted(pool["strata"].items()):
        item = stratum["items"][0]
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
