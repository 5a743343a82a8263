"""Benchmark of wigner-asym: one command, three seeded workloads.

    python3 bench/run.py --workload exact-large --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Every unit of work runs in a fresh interpreter (``worker.py``),
one at a time, with BLAS pinned to one thread, so the package's caches
start empty as on a user's first call and nothing runs in parallel.

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds.
``--trace 1`` runs a fixed number of units twice, untraced and traced with
spans around every public function of each layer (``spans.py``), and
reports the per-layer metrics.  Both check every output against the
references in ``data/`` and print, as the last line of standard output,
one JSON object with the keys correct, attempted, failed and metrics.
Details, including the environment, go to ``.bench_run/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

from spans import CHAIN
from workloads import ASYM_FORMULAS, WORKLOADS, load_pool, read_panel, unit_items

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_run"

SETUP_PROBES = 7
MIN_UNITS = 3
TRACE_UNITS = 2
UNIT_TIMEOUT_S = 60
FIG4_EXACT_REL = 1e-12
FIG4_ASYM_REL = 1e-9
SETUP_PROBE = (
    "import wigner_asym, wigner_asym.cli\n"
    "import sys, time\n"
    "sys.stdout.write(repr(time.perf_counter()))\n"
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def environment() -> dict:
    versions = {}
    for pkg in ("numpy", "mpmath", "sympy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------

def measure_setup(env) -> float:
    """Seconds from interpreter start until the package and its CLI are
    imported, in a fresh interpreter.  perf_counter is CLOCK_MONOTONIC, a
    clock shared by parent and child."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env,
                          capture_output=True, text=True, timeout=UNIT_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"importing the package failed:\n{proc.stderr}")
    return float(proc.stdout) - t0


def run_worker(env, items, trace: bool, run_id: int, out_dir: Path, trace_path=None):
    job = {"items": items, "trace": trace, "run_id": run_id, "out_dir": str(out_dir),
           "trace_path": str(trace_path) if trace_path else None}
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py")], input=json.dumps(job),
                              env=env, capture_output=True, text=True, timeout=UNIT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"unit {run_id} timed out after {UNIT_TIMEOUT_S} s"
    if proc.returncode != 0 or not proc.stdout.strip():
        return None, f"unit {run_id} exited with {proc.returncode}: {proc.stderr[-2000:]}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), None


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------

def item_ok(item: dict, out: dict) -> bool:
    if "err" in item:
        return item["err"] in out.get("err", ())
    if "err" in out:
        return False
    value = out["value"]
    if "tol" in item:
        return isinstance(value, (int, float)) and abs(value - item["ref"]) <= item["tol"]
    return value == item["ref"]


def fig4_problems(out: dict, out_dir: Path, ref: dict) -> list:
    """Why a ``verify fig4`` invocation does not match the reference."""
    if "err" in out:
        return [f"raised {out['err'][0]}"]
    run = out["value"]
    problems = []
    if run["code"] != 0:
        problems.append(f"exit code {run['code']}")
    lines = set(run["stdout"].splitlines())
    problems += [f"missing check {c!r}" for c in ref["checks"] if c not in lines]
    for panel, want in ref["panels"].items():
        path = out_dir / f"fig_{panel}.csv"
        if not path.is_file():
            problems.append(f"no {path.name}")
            continue
        got = read_panel(path)
        if [r[0] for r in got] != [r[0] for r in want]:
            problems.append(f"panel {panel}: rows differ")
            continue
        for col, rel in ((1, FIG4_EXACT_REL), (2, FIG4_ASYM_REL)):
            scale = max((abs(r[col]) for r in want if r[col] is not None), default=0.0)
            for g, w in zip(got, want):
                if (g[col] is None) != (w[col] is None) or (
                        w[col] is not None and abs(g[col] - w[col]) > rel * scale):
                    problems.append(f"panel {panel} row {w[0]} column {col}: {g[col]} != {w[col]}")
                    break
    return problems


def fig4_symbols(out_dir: Path) -> int:
    """Exact and asymptotic 9j values the study emitted."""
    count = 0
    for panel in "acd":
        path = out_dir / f"fig_{panel}.csv"
        if path.is_file():
            count += sum((r[1] is not None) + (r[2] is not None) for r in read_panel(path))
    return count


class Tally:
    """Outcomes of the units of one run."""

    def __init__(self, workload: str, pool: dict | None):
        self.workload = workload
        self.pool = pool
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.units: list = []      # per-unit records

    def add(self, items, result, error, out_dir: Path) -> None:
        if self.workload == "fig4-cold":
            self.attempted += 1
        else:
            self.attempted += len(items)
        if result is None:
            self.failed += 1 if self.workload == "fig4-cold" else len(items)
            self.problems.append(error)
            return
        record = {"wall": result["wall"], "rss_kb": result["max_rss_kb"]}
        self.units.append(record)
        if self.workload == "fig4-cold":
            problems = fig4_problems(result["outputs"][0], out_dir, self.pool)
            record["symbols"] = fig4_symbols(out_dir)
            record["ms"] = [1e3 * result["wall"] / max(record["symbols"], 1)]
            if problems:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.extend(problems[:5])
            return
        record["symbols"] = len(items)
        record["ms"] = [1e3 * t for t in result["times"]]
        for item, out in zip(items, result["outputs"]):
            if not item_ok(item, out):
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.append(f"{item['stratum']} {item['t']}: got {out}")


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------

def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def p90(values: list) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def timed_run(args, env, run_dir: Path, pool) -> tuple:
    # The first probe writes the bytecode cache, as installing would; the
    # others are spread over the run, so machine noise hits them as it hits
    # the units.
    measure_setup(env)
    setup = []
    tally = Tally(args.workload, pool)
    deadline = time.perf_counter() + args.seconds
    unit = 0
    while unit < MIN_UNITS or time.perf_counter() < deadline:
        if len(setup) < SETUP_PROBES:
            setup.append(measure_setup(env))
        items = unit_items(args.workload, args.seed, unit, pool)
        out_dir = run_dir / f"unit{unit}"
        out_dir.mkdir()
        result, error = run_worker(env, items, False, unit, out_dir)
        tally.add(items, result, error, out_dir)
        shutil.rmtree(out_dir)
        unit += 1
    while len(setup) < SETUP_PROBES:
        setup.append(measure_setup(env))
    if not tally.units:
        raise RuntimeError("no unit completed:\n" + "\n".join(tally.problems[:3]))
    walls = [r["wall"] for r in tally.units]
    # Means over units, not medians over the run: machine speed is bimodal
    # and each unit is short enough to see mostly one mode (see README.md).
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "study_s": metric(statistics.fmean(walls), "s"),
        "symbols_per_s": metric(sum(r["symbols"] for r in tally.units) / sum(walls),
                                "symbols/s"),
        "symbol_ms_p50": metric(
            statistics.fmean(statistics.median(r["ms"]) for r in tally.units), "ms"),
        "symbol_ms_p90": metric(
            statistics.fmean(p90(r["ms"]) for r in tally.units), "ms"),
        "peak_rss_mb": metric(max(r["rss_kb"] for r in tally.units) / 1024.0, "MB"),
        "ok_frac": metric((tally.attempted - tally.failed) / tally.attempted, "fraction"),
    }
    detail = {"units": unit, "latency_samples": sum(len(r["ms"]) for r in tally.units),
              "unit_walls_s": walls, "setup_samples_s": setup}
    return tally, metrics, detail


def traced_run(args, env, run_dir: Path, pool) -> tuple:
    """TRACE_UNITS units, each run untraced and traced (alternating which
    goes first), so the overhead compares equal work."""
    tally = Tally(args.workload, pool)
    trace_dir = WORK / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    untraced_wall = 0.0
    sums = defaultdict(float)
    self_by_name = defaultdict(float)
    self_by_layer = defaultdict(float)
    cm = defaultdict(lambda: [0, 0])
    unaccounted = 0.0
    missing = set()
    for unit in range(TRACE_UNITS):
        items = unit_items(args.workload, args.seed, unit, pool)
        order = (False, True) if unit % 2 == 0 else (True, False)
        for trace in order:
            out_dir = run_dir / f"unit{unit}-{int(trace)}"
            out_dir.mkdir()
            path = trace_dir / f"{args.workload}-unit{unit}.jsonl" if trace else None
            result, error = run_worker(env, items, trace, unit, out_dir, path)
            tally.add(items, result, error, out_dir)
            shutil.rmtree(out_dir)
            if result is None:
                continue
            if not trace:
                untraced_wall += result["wall"]
                continue
            tr = result["trace"]
            for layer, s in tr["self"].items():
                self_by_layer[layer] += s
            for name, s in tr["self_by_name"].items():
                self_by_name[name] += s
            for name, n in tr["calls"].items():
                sums["calls:" + name] += n
            for layer, n in tr["entries"].items():
                sums["entries:" + layer] += n
            for key in ("wall", "spans", "sixj_valid", "sixj_computed", "chain_terms",
                        "asym_rejected", "rows", "rows_noted", "format_s"):
                sums[key] += tr[key]
            for formula, (n_cm, n_ok) in tr["cm_by_formula"].items():
                cm[formula][0] += n_cm
                cm[formula][1] += n_ok
            unaccounted += tr["wall"] - sum(tr["self"].values())
            missing.update(tr["missing"])
    if tally.problems and not sums["wall"]:
        raise RuntimeError("no traced unit completed:\n" + "\n".join(tally.problems[:3]))

    u = TRACE_UNITS

    def per_unit(value):
        return value / u

    def calls(name):
        return per_unit(sums["calls:" + name])

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {
        "primefac.calls": metric(per_unit(sums["entries:primefac"]), "count"),
        "primefac.self_s": metric(per_unit(self_by_layer["primefac"]), "s"),
        "exact.wigner3j.calls": metric(calls("exact.wigner3j"), "count"),
        "exact.wigner3j.self_s": metric(per_unit(self_by_name["exact.wigner3j"]), "s"),
        "exact.wigner6j.calls": metric(calls("exact.wigner6j"), "count"),
        "exact.wigner6j.self_s": metric(per_unit(self_by_name["exact.wigner6j"]), "s"),
        "exact.sixj_reuse_ratio": metric(
            ratio(sums["sixj_valid"] - sums["sixj_computed"], sums["sixj_valid"]), "ratio"),
        "exact.chain.calls": metric(sum(calls(n) for n in CHAIN), "count"),
        "exact.chain.terms": metric(per_unit(sums["chain_terms"]), "count"),
        "exact.chain.self_s": metric(per_unit(sum(self_by_name[n] for n in CHAIN)), "s"),
        "exact.self_s": metric(per_unit(self_by_layer["exact"]), "s"),
        "sqrtrat.calls": metric(per_unit(sums["entries:sqrtrat"]), "count"),
        "sqrtrat.self_s": metric(per_unit(self_by_layer["sqrtrat"]), "s"),
        "geometry.cayley_menger.calls": metric(
            calls("geometry.Tetrahedron.cayley_menger"), "count"),
        "geometry.cm_per_asym_call": metric(
            ratio(sum(v[0] for v in cm.values()), sum(v[1] for v in cm.values())), "ratio"),
    }
    for formula in ASYM_FORMULAS:
        metrics[f"geometry.cm_per_asym_call.{formula}"] = metric(
            ratio(*cm[formula]), "ratio")
    metrics.update({
        "geometry.self_s": metric(per_unit(self_by_layer["geometry"]), "s"),
        "wigner_d.small_d.calls": metric(calls("wigner_d.small_d"), "count"),
        "wigner_d.self_s": metric(per_unit(self_by_layer["wigner_d"]), "s"),
        "asymptotics.calls": metric(per_unit(sums["entries:asymptotics"]), "count"),
        "asymptotics.rejected": metric(per_unit(sums["asym_rejected"]), "count"),
        "asymptotics.self_s": metric(per_unit(self_by_layer["asymptotics"]), "s"),
        "harness.rows": metric(per_unit(sums["rows"]), "count"),
        "harness.rows_noted": metric(per_unit(sums["rows_noted"]), "count"),
        "harness.self_s": metric(per_unit(self_by_layer["harness"]), "s"),
        "harness.format_s": metric(per_unit(sums["format_s"]), "s"),
        "cli.self_s": metric(per_unit(self_by_layer["cli"]), "s"),
        "bench.self_s": metric(per_unit(self_by_layer["bench"]), "s"),
        "trace.wall_s": metric(per_unit(sums["wall"]), "s"),
        "trace.spans": metric(per_unit(sums["spans"]), "count"),
        "trace_overhead_frac": metric(ratio(sums["wall"], untraced_wall) - 1.0, "fraction"),
    })
    detail = {"units": u, "untraced_wall_s": untraced_wall,
              "self_by_layer_s": dict(self_by_layer), "self_by_name_s": dict(self_by_name),
              "unaccounted_s": unaccounted, "missing_api": sorted(missing)}
    return tally, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wigner_asym" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    env = child_env()
    pool = load_pool(args.workload)
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"run-{os.getpid()}"
    run_dir.mkdir()
    try:
        runner = traced_run if args.trace else timed_run
        tally, metrics, detail = runner(args, env, run_dir, pool)
    except (RuntimeError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    env_info = environment()
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env_info, "attempted": tally.attempted,
        "failed": tally.failed, "problems": tally.problems[:20], "metrics": metrics,
        **detail,
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    for problem in tally.problems[:5]:
        print(f"mismatch: {problem}", file=sys.stderr)
    print("environment " + json.dumps(env_info))
    print(json.dumps({
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
