"""Seeded inputs of the benchmark workloads.

Every workload runs as a sequence of cold *units*: one fresh interpreter
per unit, so the 6j cache, the factorial ledger's prime table and the
small-d coefficient cache start empty as they do for a user's first call.

The inputs of ``exact-large`` and ``asym-mixed`` come from pools stored in
``data/`` together with the outputs the package produced when the pools
were made (``make_refs.py``).  A pool is split into strata (spin scale,
formula, expected outcome).  Each unit takes a fixed number of items from
every stratum, in an order fixed by the seed, so the same seed always gives
the same inputs and every unit has the same mix of spin scales and
formulas.  Within one unit no item repeats; items recur only across units,
which run in separate processes and so share no cache.

``fig4-cold`` has no generated inputs: each unit is one cold
``wigner-asym verify fig4`` invocation of the paper's reference study.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

DATA_DIR = Path(__file__).resolve().parent / "data"

WORKLOADS = ("exact-large", "fig4-cold", "asym-mixed")
POOLED = ("exact-large", "asym-mixed")
ASYM_FORMULAS = (
    "pr_6j", "edmonds_6j", "asym_9j_one_small", "asym_3nj", "asym_15j_one_small",
    "asym_15j_two_small", "asym_15j_three_small", "asym_15j_four_small",
)


def load_pool(workload: str) -> dict:
    """The stored pool of a workload: {"strata": {name: {"per_unit", "items"}}}."""
    with open(DATA_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def unit_items(workload: str, seed: int, unit: int, pool: dict | None = None) -> list:
    """Inputs of one unit: ``per_unit`` items of every stratum, shuffled."""
    if workload == "fig4-cold":
        return [{"kind": "fig4"}]
    if workload not in POOLED:
        raise ValueError(f"unknown workload {workload!r}")
    if pool is None:
        pool = load_pool(workload)
    out = []
    for name, stratum in sorted(pool["strata"].items()):
        items, k = stratum["items"], stratum["per_unit"]
        # Pool sizes are multiples of per_unit, so a unit's slice never
        # straddles two permutations and cannot repeat an item.
        epoch, start = divmod(unit * k, len(items))
        order = list(range(len(items)))
        random.Random(f"{workload}/{seed}/{name}/{epoch}").shuffle(order)
        out.extend(dict(items[i], stratum=name) for i in order[start:start + k])
    random.Random(f"{workload}/{seed}/unit/{unit}").shuffle(out)
    return out


def read_panel(path) -> list:
    """[sweep_twice, exact, asym] per row of a sweep CSV; empty cells are None."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        cols = [header.index(name) for name in ("sweep_twice", "exact", "asym")]
        for line in fh:
            cells = line.rstrip("\n").split(",")
            sweep, exact, asym = (cells[c] for c in cols)
            rows.append([int(sweep)] + [float(v) if v else None for v in (exact, asym)])
    return rows


# ----------------------------------------------------------------------
# Clebsch-Gordan validity, on twice-integer spins
# ----------------------------------------------------------------------

def triad_ok(a: int, b: int, c: int) -> bool:
    return min(a, b, c) >= 0 and (a + b + c) % 2 == 0 and abs(a - b) <= c <= a + b


def sixj_triads(a, b, c, d, e, f):
    return ((a, b, c), (a, e, f), (d, b, f), (d, e, c))


def sixj_valid(t) -> bool:
    return all(triad_ok(*tri) for tri in sixj_triads(*t))


def threej_valid(t) -> bool:
    t1, t2, t3, u1, u2, u3 = t
    return (
        triad_ok(t1, t2, t3)
        and u1 + u2 + u3 == 0
        and all(abs(u) <= j and (j - u) % 2 == 0 for j, u in ((t1, u1), (t2, u2), (t3, u3)))
    )


def chain_triads(tj, tk, tl):
    """The 2n triads of a first-kind 3nj symbol with rows j, k, l."""
    n = len(tj)
    out = [(tj[i], tl[i], tj[i + 1]) for i in range(n - 1)]
    out.append((tj[n - 1], tl[n - 1], tk[0]))
    out += [(tk[i], tl[i], tk[i + 1]) for i in range(n - 1)]
    out.append((tk[n - 1], tl[n - 1], tj[0]))
    return out


def chain_valid(tj, tk, tl) -> bool:
    return all(triad_ok(*tri) for tri in chain_triads(tj, tk, tl))


def ninej_valid(t) -> bool:
    g = (t[0:3], t[3:6], t[6:9])
    rows = [tuple(r) for r in g]
    cols = [tuple(g[i][j] for i in range(3)) for j in range(3)]
    return all(triad_ok(*tri) for tri in rows + cols)


def pair_window(pairs):
    """Twice-values of a summation spin that must couple with every pair."""
    if len({(a + b) % 2 for a, b in pairs}) != 1:
        return range(0)
    lo = max(abs(a - b) for a, b in pairs)
    hi = min(a + b for a, b in pairs)
    return range(lo, hi + 1, 2)


def chain_sixjs(tj, tk, tl):
    """Every 6j of the cyclic chain sum of a first-kind 3nj symbol."""
    n = len(tj)
    for x in pair_window(list(zip(tj, tk))):
        for p in range(n - 1):
            yield (tj[p], tk[p], x, tk[p + 1], tj[p + 1], tl[p])
        yield (tj[n - 1], tk[n - 1], x, tj[0], tk[0], tl[n - 1])


def sixj_class_key(t) -> tuple:
    """Invariant shared by all 144 Regge/tetrahedral images of a 6j.

    The Racah sum depends only on the four triad sums and the three
    pair sums; equal keys are necessary for any symmetry-keyed cache hit.
    """
    a, b, c, d, e, f = t
    triads = sorted(sum(tri) for tri in sixj_triads(a, b, c, d, e, f))
    pairs = sorted((a + b + d + e, b + c + e + f, a + c + d + f))
    return tuple(triads), tuple(pairs)


def threej_class_key(t) -> tuple:
    """Invariant shared by all 72 Regge images of a 3j: its Regge entries."""
    t1, t2, t3, u1, u2, u3 = t
    return tuple(sorted((
        t1 + t2 - t3, t1 - t2 + t3, -t1 + t2 + t3,
        t1 - u1, t2 - u2, t3 - u3, t1 + u1, t2 + u2, t3 + u3,
    )))
