"""Build the input pools of the benchmark and their reference outputs.

    PYTHONPATH=src python3 bench/make_refs.py

Draws every pool from a fixed seed, rejecting invalid symbols, evaluates it
with the package as it stands, cross-checks a small-spin subset against
``sympy.physics.wigner``, and writes ``bench/data/<workload>.json``.

The stored outputs pin the package's results at the commit that made them,
so later changes are checked against them: regenerate only when the
benchmark itself changes, never to absorb a change in the package's output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import statistics
import sys
import tempfile
from pathlib import Path

import wigner_asym
import wigner_asym.cli
from wigner_asym import HalfInt, Symbol3nj, Tetrahedron, dihedral_internal
from wigner_asym.errors import DegenerateTriangle, WignerAsymError

import worker
from workloads import (
    DATA_DIR,
    chain_sixjs,
    chain_valid,
    ninej_valid,
    sixj_class_key,
    read_panel,
    sixj_valid,
    threej_class_key,
)

POOL_SEED = 20111108

# exact-large strata: spin ranges (spin values, not twice values).
THREEJ_BINS = ((100, 250), (250, 400), (400, 550), (550, 700), (700, 850), (850, 1000))
# The cost of a 3j grows with its sum window relative to its smallest spin;
# these bounds split random 3j into quarters of that distribution.  One 3j
# per quarter and spin bin keeps every unit's cost close to the mean.
THREEJ_WINDOW = ((0.0, 0.14), (0.14, 0.28), (0.28, 0.45), (0.45, 1.01))
SIXJ_BINS = ((200, 560), (560, 920), (920, 1280), (1280, 1640), (1640, 2000))
FIFTEENJ_RANGE = (54, 66)
EXACT_PER_UNIT = {"3j": 1, "6j": 2, "15j": 1}
EXACT_POOL_UNITS = 20          # pool holds this many units' worth per stratum

# asym-mixed: large spins between these twice-values; small ones are 1..4.
ASYM_LARGE = (80, 600)
ASYM_POOL_UNITS = 2
# Cayley-Menger determinant over (mean edge)^6: well inside the allowed
# region, near the caustic but allowed, and clearly forbidden.  Every
# class keeps a wide margin from the package's caustic guard (1e-6), so
# rounding cannot move an input across it.
ALLOWED_MIN = 1e-3
NEAR = (1e-4, 1e-3)
FORBIDDEN_MAX = -1e-3
ANGLE_MARGIN = 1e-3
REL_TOL_15J = 1e-12
REL_TOL_ASYM = 1e-9

# (stratum, formula, per-unit count)
ASYM_STRATA = (
    ("pr_6j/allowed", "pr_6j", 80),
    ("pr_6j/near_caustic", "pr_6j", 10),
    ("pr_6j/forbidden", "pr_6j", 10),
    ("edmonds_6j/allowed", "edmonds_6j", 100),
    ("asym_9j_one_small/allowed", "asym_9j_one_small", 80),
    ("asym_9j_one_small/near_caustic", "asym_9j_one_small", 10),
    ("asym_9j_one_small/forbidden", "asym_9j_one_small", 10),
    ("asym_3nj/allowed", "asym_3nj", 90),
    ("asym_3nj/bad_marking", "asym_3nj", 10),
    ("asym_15j_one_small/allowed", "asym_15j_one_small", 90),
    ("asym_15j_one_small/out_of_range", "asym_15j_one_small", 10),
    ("asym_15j_two_small/allowed", "asym_15j_two_small", 90),
    ("asym_15j_two_small/out_of_range", "asym_15j_two_small", 10),
    ("asym_15j_three_small/allowed", "asym_15j_three_small", 90),
    ("asym_15j_three_small/forbidden", "asym_15j_three_small", 10),
    ("asym_15j_four_small/allowed", "asym_15j_four_small", 100),
)
SMALL_L = {
    "asym_15j_one_small": (),
    "asym_15j_two_small": (2,),
    "asym_15j_three_small": (2, 3),
    "asym_15j_four_small": (2, 3, 4),
}


# ----------------------------------------------------------------------
# Symbol generators (twice-integer spins)
# ----------------------------------------------------------------------

def gen_3j(rng, lo: int, hi: int):
    """A valid 3j with all three spins in [lo, hi)."""
    while True:
        t1, t2 = rng.randrange(2 * lo, 2 * hi), rng.randrange(2 * lo, 2 * hi)
        t3 = rng.randrange(abs(t1 - t2), t1 + t2 + 1, 2)
        if not 2 * lo <= t3 < 2 * hi:
            continue
        u1, u2 = rng.randrange(-t1, t1 + 1, 2), rng.randrange(-t2, t2 + 1, 2)
        if abs(u1 + u2) <= t3:
            return (t1, t2, t3, u1, u2, -u1 - u2)


def threej_window(t) -> float:
    """Terms of the 3j sum over (smallest spin + 1)."""
    t1, t2, t3, u1, u2, _ = t
    a, b, c = (t1 + t2 - t3) // 2, (t1 - u1) // 2, (t2 + u2) // 2
    d, e = (t3 - t2 + u1) // 2, (t3 - t1 - u2) // 2
    return (min(a, b, c) - max(0, -d, -e) + 1) / (min(t1, t2, t3) / 2 + 1)


def gen_6j(rng, lo2: int, hi2: int):
    """A valid 6j with all six twice-values in [lo2, hi2)."""
    while True:
        a, b = rng.randrange(lo2, hi2), rng.randrange(lo2, hi2)
        c = rng.randrange(abs(a - b), a + b + 1, 2)
        d = rng.randrange(lo2, hi2)
        e = rng.randrange(abs(d - c), d + c + 1, 2)
        f_lo, f_hi = max(abs(a - e), abs(d - b)), min(a + e, d + b)
        if (a + e + d + b) % 2 or f_hi < f_lo:
            continue
        f = rng.randrange(f_lo, f_hi + 1, 2)
        t = (a, b, c, d, e, f)
        if all(lo2 <= x < hi2 for x in t) and sixj_valid(t):
            return t


def gen_chain(rng, base: int, var: int, t_small: int, small_l):
    """A valid first-kind 15j with j1 = t_small/2 small and the given small
    l indices; the other spins lie within var of base.  The k row is
    integer and the other j entries share the parity of j1, so every
    intermediate-spin window is consistent."""
    while True:
        tk = [2 * (base + rng.randint(-var, var)) for _ in range(5)]
        tj = [t_small] + [2 * (base + rng.randint(-var, var)) + t_small % 2 for _ in range(4)]
        tl = [0] * 5
        tl[0] = tj[1] + rng.randrange(-t_small, t_small + 1, 2)
        tl[4] = tk[4] + rng.randrange(-t_small, t_small + 1, 2)
        for m in (2, 3, 4):
            if m in small_l:
                tlm = rng.choice((2, 4))
                tl[m - 1] = tlm
                tj[m] = tj[m - 1] + rng.randrange(-tlm, tlm + 1, 2)
                tk[m] = tk[m - 1] + rng.randrange(-tlm, tlm + 1, 2)
            else:
                tl[m - 1] = 2 * (base + rng.randint(-var, var))
        if chain_valid(tj, tk, tl):
            return tj + tk + tl


def cm_ratio(twice) -> float:
    """Cayley-Menger determinant over (mean edge)^6, edges l = j + 1/2."""
    try:
        tet = Tetrahedron.from_spins([HalfInt.from_twice(t) for t in twice])
    except DegenerateTriangle:
        return -math.inf
    mean = sum(tet.lengths) / 6.0
    return tet.cayley_menger() / mean ** 6


def geometry_class(ratio: float):
    if ratio >= ALLOWED_MIN:
        return "allowed"
    if NEAR[0] <= ratio < NEAR[1]:
        return "near_caustic"
    if ratio <= FORBIDDEN_MAX:
        return "forbidden"
    return None


def chain_tet(t, p: int):
    """Twice-spins of the oscillatory tetrahedron p of a 15j chain."""
    tj, tk, tl = t[0:5], t[5:10], t[10:15]
    return (tj[p - 1], tk[p - 1], tk[0], tk[p], tj[p], tl[p - 1])


def internal_dihedral_c(twice) -> float:
    tet = Tetrahedron.from_spins([HalfInt.from_twice(x) for x in twice])
    return dihedral_internal(tet, "c")


def chain_class(t, formula: str, small_l):
    """Expected outcome class of a 15j closed form or asym_3nj input, or
    None when the input sits too close to a classification boundary."""
    oscillatory = [p for p in (2, 3, 4) if p not in small_l]
    ratios = [cm_ratio(chain_tet(t, p)) for p in oscillatory]
    classes = {geometry_class(r) for r in ratios}
    if None in classes or "near_caustic" in classes:
        return None
    if "forbidden" in classes:
        return "forbidden"
    theta = {p: internal_dihedral_c(chain_tet(t, p)) for p in oscillatory}
    if formula == "asym_15j_one_small":
        t2, t3, t4 = theta[2], theta[3], theta[4]
        combos = (t2 + t3 + t4 - math.pi, math.pi - t2 - t3 + t4,
                  math.pi - t2 + t3 - t4, math.pi + t2 - t3 - t4)
    elif formula == "asym_15j_two_small":
        combos = (math.pi - theta[3] - theta[4],)
    else:
        return "allowed"
    if all(ANGLE_MARGIN <= c <= math.pi - ANGLE_MARGIN for c in combos):
        return "allowed"
    if any(c < -ANGLE_MARGIN or c > math.pi + ANGLE_MARGIN for c in combos):
        return "out_of_range"
    return None


def rotate_chain(rng, t, small_l):
    """Apply a random circular symmetry of the 15j; returns the rotated
    spins and the marking that names the same small spins."""
    shift = rng.randrange(10)
    h = [HalfInt.from_twice(x) for x in t]
    sym = Symbol3nj(tuple(h[0:5]), tuple(h[5:10]), tuple(h[10:15])).rotated(shift)
    pos = -shift % 10
    row, idx = ("j" if pos < 5 else "k"), pos % 5 + 1
    ls = shift % 5
    small = sorted(((m - 1 - ls) % 5) + 1 for m in small_l)
    twice = [x.twice for x in sym.j + sym.k + sym.l]
    return twice, [row, idx, small]


# ----------------------------------------------------------------------
# Pools
# ----------------------------------------------------------------------

def exact_pool(rng) -> dict:
    strata = {}
    seen3, seen6 = set(), set()
    n3 = EXACT_PER_UNIT["3j"] * EXACT_POOL_UNITS
    for lo, hi in THREEJ_BINS:
        for q, (w_lo, w_hi) in enumerate(THREEJ_WINDOW):
            items = []
            while len(items) < n3:
                t = gen_3j(rng, lo, hi)
                key = threej_class_key(t)
                if w_lo <= threej_window(t) < w_hi and key not in seen3:
                    seen3.add(key)
                    items.append({"kind": "3j", "t": list(t)})
            strata[f"3j/{lo}-{hi}/w{q}"] = {"per_unit": EXACT_PER_UNIT["3j"], "items": items}
    n6 = EXACT_PER_UNIT["6j"] * EXACT_POOL_UNITS
    for lo, hi in SIXJ_BINS:
        items = []
        while len(items) < n6:
            t = gen_6j(rng, 2 * lo, 2 * hi)
            key = sixj_class_key(t)
            if key not in seen6:
                seen6.add(key)
                items.append({"kind": "6j", "t": list(t)})
        strata[f"6j/{lo}-{hi}"] = {"per_unit": EXACT_PER_UNIT["6j"], "items": items}
    # 15j chains: no 6j of any chain may share a symmetry class with another
    # 6j anywhere in the pool, so no 6j cache can hit on this workload.
    lo, hi = FIFTEENJ_RANGE
    items = []
    while len(items) < EXACT_PER_UNIT["15j"] * EXACT_POOL_UNITS:
        parity = rng.randrange(2)
        tj = [2 * rng.randint(lo, hi - 1) + parity for _ in range(5)]
        tk = [2 * rng.randint(lo, hi - 1) + parity for _ in range(5)]
        tl = [2 * rng.randint(lo, hi - 1) for _ in range(5)]
        if not chain_valid(tj, tk, tl):
            continue
        keys = [sixj_class_key(s) for s in chain_sixjs(tj, tk, tl) if sixj_valid(s)]
        if len(set(keys)) != len(keys) or seen6.intersection(keys):
            continue
        seen6.update(keys)
        items.append({"kind": "15j", "t": tj + tk + tl})
    strata[f"15j/{lo}-{hi}"] = {"per_unit": EXACT_PER_UNIT["15j"], "items": items}
    return {"strata": strata}


def asym_candidate(rng, stratum: str, formula: str):
    """One input for an asym-mixed stratum, or None to draw again."""
    outcome = stratum.split("/", 1)[1]
    lo2, hi2 = ASYM_LARGE
    if formula == "pr_6j":
        t = gen_6j(rng, lo2, hi2)
        return {"f": formula, "t": list(t)} if geometry_class(cm_ratio(t)) == outcome else None
    if formula == "edmonds_6j":
        a, b = rng.randrange(lo2, hi2), rng.randrange(lo2, hi2)
        c = rng.randrange(abs(a - b), a + b + 1, 2)
        f = rng.randint(1, 4)
        m, n = rng.randrange(-f, f + 1, 2), rng.randrange(-f, f + 1, 2)
        return {"f": formula, "t": [a, b, c, m, n, f]} if c >= lo2 else None
    if formula == "asym_9j_one_small":
        j1, j2, j12, j34, j5, j24 = gen_6j(rng, lo2, hi2)
        if geometry_class(cm_ratio((j1, j2, j12, j34, j5, j24))) != outcome:
            return None
        s = rng.randint(1, 4)
        j4 = j34 + rng.randrange(-s, s + 1, 2)
        j13 = j1 + rng.randrange(-s, s + 1, 2)
        t = [j1, j2, j12, s, j4, j34, j13, j24, j5]
        return {"f": formula, "t": t} if ninej_valid(t) else None
    t_small = rng.randint(1, 4)
    base = rng.randint(30, 80)
    if formula == "asym_3nj":
        small_l = tuple(m for m in (2, 3, 4) if rng.random() < 0.5)
        t = gen_chain(rng, base, 3, t_small, small_l)
        if outcome == "bad_marking":
            # A small l next to the small j1 shares a 6j with it.
            marked = sorted(set(small_l) | {rng.choice((1, 5))})
            return {"f": formula, "t": t, "mark": ["j", 1, marked]}
        if chain_class(t, formula, small_l) != "allowed":
            return None
        twice, mark = rotate_chain(rng, t, small_l)
        return {"f": formula, "t": twice, "mark": mark}
    small_l = SMALL_L[formula]
    var = 3 if outcome == "allowed" else 15
    t = gen_chain(rng, base, var, t_small, small_l)
    if chain_class(t, formula, small_l) != outcome:
        return None
    return {"f": formula, "t": t, "mark": ["j", 1, list(small_l)]}


def asym_pool(rng) -> dict:
    strata = {}
    for stratum, formula, per_unit in ASYM_STRATA:
        items, seen = [], set()
        while len(items) < per_unit * ASYM_POOL_UNITS:
            item = asym_candidate(rng, stratum, formula)
            if item is None:
                continue
            key = json.dumps(item, sort_keys=True)
            if key not in seen:
                seen.add(key)
                items.append(item)
        strata[stratum] = {"per_unit": per_unit, "items": items}
    return {"strata": strata}


# ----------------------------------------------------------------------
# Reference outputs
# ----------------------------------------------------------------------

def evaluate(item: dict) -> dict:
    fn, reduce = worker.prepare(item, "")
    try:
        return {"value": reduce(fn())}
    except WignerAsymError as exc:
        return {"err": worker.error_names(exc)}


def attach_refs(pool: dict, rel_tol: float, expect_error) -> None:
    """Store each item's output; float outputs get an absolute tolerance of
    rel_tol times the larger of |value| and the stratum's median |value|,
    so values that cancel to near zero are not held to a tighter bound."""
    for name, stratum in pool["strata"].items():
        outs = [evaluate(item) for item in stratum["items"]]
        floats = [abs(o["value"]) for o in outs if isinstance(o.get("value"), float)]
        scale = statistics.median(floats) if floats else 0.0
        for item, out in zip(stratum["items"], outs):
            if "err" in out:
                if not expect_error(name):
                    raise SystemExit(f"{name}: unexpected {out['err'][0]} for {item}")
                item["err"] = out["err"][0]
            else:
                if expect_error(name):
                    raise SystemExit(f"{name}: expected a typed error for {item}")
                item["ref"] = out["value"]
                if isinstance(out["value"], float):
                    item["tol"] = rel_tol * max(abs(out["value"]), scale)


def fig4_reference() -> dict:
    """Per-panel (sweep_twice, exact, asym) rows of ``verify fig4``."""
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = wigner_asym.cli.main(["verify", "fig4", "--out", tmp])
        if code != 0:
            raise SystemExit(f"verify fig4 exited with {code}")
        panels = {p: read_panel(Path(tmp) / f"fig_{p}.csv") for p in "acd"}
    return {"panels": panels, "checks": sorted(out.getvalue().splitlines())}


# ----------------------------------------------------------------------
# Independent oracle
# ----------------------------------------------------------------------

def sympy_check(pool: dict, per_stratum: int = 4) -> int:
    """Compare the smallest-spin 3j and 6j of the pool, and random
    small-spin symbols, with sympy.physics.wigner exactly.

    Both values are compared through their sign and exact square.
    Returns the number of symbols checked; raises on a mismatch.
    """
    from fractions import Fraction

    import sympy
    from sympy.physics.wigner import wigner_3j, wigner_6j

    def half(t):
        return sympy.Rational(t, 2)

    def same(ours, theirs, what):
        sq = sympy.Rational(theirs ** 2)
        ours_sq = ours.value_squared()
        sign = 0 if theirs == 0 else (1 if theirs > 0 else -1)
        if ours.sign != sign or Fraction(int(sq.p), int(sq.q)) != ours_sq:
            raise SystemExit(f"sympy disagrees on {what}: {ours} vs {theirs}")

    checked = 0
    rng = random.Random(POOL_SEED + 1)
    cases = []
    for name in ("3j/100-250/w0", "3j/100-250/w3", "6j/200-560"):
        cases += pool["strata"][name]["items"][:per_stratum]
    for _ in range(20):
        cases.append({"kind": "3j", "t": list(gen_3j(rng, 0, 12))})
        cases.append({"kind": "6j", "t": list(gen_6j(rng, 0, 24))})
    for item in cases:
        t = item["t"]
        if item["kind"] == "3j":
            ours = wigner_asym.wigner3j(*(HalfInt.from_twice(x) for x in t))
            theirs = wigner_3j(*(half(x) for x in t))
        else:
            ours = wigner_asym.wigner6j(*(HalfInt.from_twice(x) for x in t))
            theirs = wigner_6j(*(half(x) for x in t))
        same(ours, theirs, f"{item['kind']} {t}")
        checked += 1
    return checked


def main() -> int:
    DATA_DIR.mkdir(exist_ok=True)
    rng = random.Random(POOL_SEED)
    exact = exact_pool(rng)
    attach_refs(exact, REL_TOL_15J, lambda name: False)
    n_sympy = sympy_check(exact)
    asym = asym_pool(rng)
    attach_refs(asym, REL_TOL_ASYM,
                lambda name: name.split("/")[1] in ("forbidden", "bad_marking", "out_of_range"))
    fig4 = fig4_reference()
    for workload, doc in (("exact-large", exact), ("asym-mixed", asym), ("fig4-cold", fig4)):
        doc["pool_seed"] = POOL_SEED
        with open(DATA_DIR / f"{workload}.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")
    print(f"wrote pools to {DATA_DIR}; {n_sympy} symbols agree with sympy", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
