"""Self-test of the benchmark.

    python3 bench/selftest.py

Checks that the workload generators repeat for a given seed and draw only
valid symbols, that a small-spin subset of the exact references agrees with
sympy.physics.wigner, that a reduced-size run of every workload prints
every metric named in BENCHMARK.json with its unit, that traced self times
add up to the traced wall time, and that the benchmark refuses to run
without the package source.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import make_refs  # noqa: E402
from workloads import (  # noqa: E402
    POOLED,
    WORKLOADS,
    chain_valid,
    load_pool,
    ninej_valid,
    sixj_valid,
    threej_valid,
    triad_ok,
    unit_items,
)

FAILURES = []


def check(condition: bool, what: str) -> None:
    print(f"{'PASS' if condition else 'FAIL'}: {what}")
    if not condition:
        FAILURES.append(what)


def item_valid(item: dict) -> bool:
    t = item["t"]
    if item.get("kind") == "3j":
        return threej_valid(t)
    if item.get("kind") == "6j" or item.get("f") == "pr_6j":
        return sixj_valid(t)
    if item.get("f") == "edmonds_6j":
        a, b, c, m, n, f = t
        return triad_ok(a, b, c) and all(abs(p) <= f and (f - p) % 2 == 0 for p in (m, n))
    if item.get("f") == "asym_9j_one_small":
        return ninej_valid(t)
    return chain_valid(t[0:5], t[5:10], t[10:15])


def test_generators() -> None:
    for workload in POOLED:
        pool = load_pool(workload)
        first = unit_items(workload, 7, 3, pool)
        check(first == unit_items(workload, 7, 3, pool), f"{workload}: same seed, same inputs")
        check(first != unit_items(workload, 8, 3, pool), f"{workload}: another seed, other inputs")
        keys = [json.dumps(item, sort_keys=True) for item in first]
        check(len(set(keys)) == len(keys), f"{workload}: no input repeats within a unit")
        counts = {name: s["per_unit"] for name, s in pool["strata"].items()}
        got = {name: sum(1 for item in first if item["stratum"] == name) for name in counts}
        check(got == counts, f"{workload}: every unit has the per-stratum counts")
        items = [item for s in pool["strata"].values() for item in s["items"]]
        check(all(item_valid(item) for item in items), f"{workload}: every pooled symbol is valid")
    check(unit_items("fig4-cold", 1, 0) == unit_items("fig4-cold", 2, 5),
          "fig4-cold: every unit is the reference study")

    draws = []
    for _ in range(2):
        rng = random.Random(11)
        draws.append([make_refs.gen_3j(rng, 100, 250), make_refs.gen_6j(rng, 400, 1120),
                      make_refs.gen_chain(rng, 40, 3, 2, (2,))])
    check(draws[0] == draws[1], "pool generators repeat for a given seed")
    check(threej_valid(draws[0][0]) and sixj_valid(draws[0][1])
          and chain_valid(*(draws[0][2][i:i + 5] for i in (0, 5, 10))),
          "pool generators draw valid symbols")


def test_sympy() -> None:
    n = make_refs.sympy_check(load_pool("exact-large"), per_stratum=2)
    check(n > 0, f"{n} exact 3j/6j agree with sympy.physics.wigner")


def run_bench(cwd: Path, *args: str):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_reduced_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", str(trace))
            what = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                check(False, f"{what}: exit code {proc.returncode}: {proc.stderr[-500:]}")
                continue
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            check(sorted(out) == ["attempted", "correct", "failed", "metrics"],
                  f"{what}: last line has the four keys")
            check(out["correct"] and out["failed"] == 0 and out["attempted"] >= 1,
                  f"{what}: outputs match the references")
            want = {m["name"]: m["unit"] for m in listed}
            got = {name: m["unit"] for name, m in out["metrics"].items()}
            check(got == want, f"{what}: prints every named metric with its unit")
            check(all(isinstance(m["value"], (int, float)) for m in out["metrics"].values()),
                  f"{what}: every value is a number")
            if trace:
                report = json.loads((ROOT / ".bench_run" / "results"
                                     / f"{workload}-seed3-trace1.json").read_text())
                wall = out["metrics"]["trace.wall_s"]["value"] * report["units"]
                check(abs(report["unaccounted_s"]) <= 1e-6 * max(wall, 1.0),
                      f"{what}: layer self times add up to the traced wall time")


def test_refuses_without_source() -> None:
    bare = ROOT / ".bench_run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, "--workload", "exact-large", "--seed", "1", "--seconds", "1")
    shutil.rmtree(bare)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    check(proc.returncode != 0 and not last[0].startswith("{"),
          "refuses to run without the package source")


def main() -> int:
    test_generators()
    test_sympy()
    test_reduced_runs()
    test_refuses_without_source()
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
