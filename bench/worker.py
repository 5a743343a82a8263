"""One cold benchmark unit, run in a fresh interpreter by ``run.py``.

Reads a job from standard input as JSON: the unit's items, whether to
trace, and where to write spans and output files.  It imports the package,
evaluates every item through the public API, timing each call, and prints
one JSON object as the last line of standard output.  Outputs are reduced
to comparable form (digests of exact values, floats, error classes) only
after the timed loop.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from fractions import Fraction

import wigner_asym
import wigner_asym.cli
from wigner_asym import HalfInt, SmallSpinMarking, Symbol3nj, Symbol9j
from wigner_asym.errors import WignerAsymError

import spans
from workloads import ASYM_FORMULAS


def _halves(twice):
    return [HalfInt.from_twice(t) for t in twice]


def _chain(twice):
    n = len(twice) // 3
    h = _halves(twice)
    return Symbol3nj(tuple(h[:n]), tuple(h[n:2 * n]), tuple(h[2 * n:]))


def prepare(item: dict, out_dir: str):
    """(callable, reducer): the callable makes exactly one public API call;
    its arguments are built here, outside the timed region.  Functions are
    looked up on the package at call time, so a traced unit calls the
    wrappers ``spans`` installed there."""
    kind = item.get("kind")
    t = item.get("t")
    if kind == "3j":
        args = _halves(t)
        return (lambda: wigner_asym.wigner3j(*args)), exact_digest
    if kind == "6j":
        args = _halves(t)
        return (lambda: wigner_asym.wigner6j(*args)), exact_digest
    if kind == "15j":
        sym = _chain(t)
        return (lambda: wigner_asym.wigner15j(sym.j, sym.k, sym.l)), float
    if kind == "fig4":
        argv = ["verify", "fig4", "--out", out_dir]
        return (lambda: _run_cli(argv)), None
    formula = item["f"]
    if formula not in ASYM_FORMULAS:
        raise ValueError(f"unknown formula {formula!r}")
    if formula == "pr_6j":
        args = (_halves(t),)
    elif formula == "edmonds_6j":
        args = tuple(_halves(t))
    elif formula == "asym_9j_one_small":
        args = (Symbol9j.from_twice(*t),)
    else:
        row, idx, small_l = item["mark"]
        args = (_chain(t), SmallSpinMarking((row, idx), frozenset(small_l)))
    return (lambda: getattr(wigner_asym, formula)(*args)), asym_value


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = wigner_asym.cli.main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def exact_digest(value) -> str:
    """Digest of an exact sign * rat * sqrt(rad) value."""
    rat, rad = Fraction(value.rat), Fraction(value.rad)
    text = (f"{int(value.sign)}|{rat.numerator:x}|{rat.denominator:x}|"
            f"{rad.numerator:x}|{rad.denominator:x}")
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def asym_value(result) -> float:
    value = result[0] if isinstance(result, tuple) else result
    return float(value)


def error_names(exc: BaseException) -> list:
    return [cls.__name__ for cls in type(exc).__mro__]


def run_unit(job: dict) -> dict:
    calls = [prepare(item, job.get("out_dir", "")) for item in job["items"]]
    tracer = spans.install(job["run_id"]) if job.get("trace") else None
    clock = time.perf_counter
    raw, times = [], []
    if tracer:
        tracer.begin("bench.unit")
    start = clock()
    for fn, _ in calls:
        if tracer:
            tracer.begin("bench.request")
        t0 = clock()
        try:
            out = (True, fn())
        except WignerAsymError as exc:
            out = (False, exc)
        t1 = clock()
        if tracer:
            tracer.end()
        raw.append(out)
        times.append(t1 - t0)
    wall = clock() - start
    if tracer:
        tracer.end()
        tracer.uninstall()

    outputs = []
    for (ok, value), (_, reduce) in zip(raw, calls):
        if not ok:
            outputs.append({"err": error_names(value)})
        elif reduce is None:
            outputs.append({"value": value})
        else:
            outputs.append({"value": reduce(value)})
    result = {
        "times": times,
        "wall": wall,
        "outputs": outputs,
        "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        result["trace"] = tracer.summary(WignerAsymError)
        if job.get("trace_path"):
            tracer.write(job["trace_path"])
    return result


def main() -> int:
    job = json.load(sys.stdin)
    result = run_unit(job)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
