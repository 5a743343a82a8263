"""Exact 9j, 15j and general 3nj: reductions, symmetries, identities."""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from fractions import Fraction

import mpmath
import pytest

from wigner_asym import exact
from wigner_asym.errors import InternalConsistencyError
from wigner_asym.exact import (
    PIVOTS,
    X,
    Symbol3nj,
    Symbol9j,
    _chain_series,
    _chain_sum,
    wigner3j,
    wigner6j,
    wigner9j,
    wigner15j,
    wigner3nj,
)
from wigner_asym.halfint import HalfInt, triad_allowed, triad_ok
from wigner_asym.primefac import DEFAULT_LEDGER
from wigner_asym.sqrtrat import SqrtRational
from wigner_asym.identities import (
    orthogonality_sides,
    pentagon_mismatches,
    random_orthogonality_instance,
    random_pentagon_instance,
    random_valid_9j,
)

from conftest import to_mpf
from oracles import random_valid_chain

H = HalfInt.from_twice


def mpf_close(a, b, tol_exp=-35, scale=None):
    scale = scale if scale is not None else max(abs(a), abs(b), mpmath.mpf(10) ** -20)
    return abs(a - b) < mpmath.mpf(10) ** tol_exp * scale


def test_9j_zero_spin_reduction_frozen():
    with mpmath.workdps(50):
        res = wigner9j(Symbol9j.from_values(1, 1, 1, 1, 1, 1, 1, 1, 0))
        assert abs(to_mpf(res.value) - mpmath.mpf(1) / 18) < mpmath.mpf(10) ** -45
        # general reduction {a b c; d e f; g h 0} =
        # delta_cf delta_gh (-1)^(b+c+d+g) {a b c; e d g} / sqrt(d_c d_g)
        rng = random.Random(7)
        done = 0
        while done < 10:
            sym = random_valid_9j(rng, tmax=10)
            sym0 = Symbol9j(sym.j1, sym.j2, sym.j12, sym.s, sym.j4, sym.j12,
                            sym.j13, sym.j13, HalfInt(0))
            if not sym0.is_valid():
                continue
            lhs = to_mpf(wigner9j(sym0).value)
            phase_t = (sym.j2 + sym.j12 + sym.s + sym.j13).twice
            if phase_t % 2:
                continue
            sign = -1 if (phase_t // 2) % 2 else 1
            rhs = sign * to_mpf(wigner6j(
                sym0.j1, sym0.j2, sym0.j12, sym0.j4, sym0.s, sym0.j13
            )) / mpmath.sqrt(sym0.j12.dim * sym0.j13.dim)
            assert mpf_close(lhs, rhs), (sym0, lhs, rhs)
            done += 1


def test_9j_pivot_invariance_spot():
    with mpmath.workdps(50):
        sym = Symbol9j.from_values(5, 4, 3, 2, 3, 4, 4, 5, 2)
        vals = [wigner9j(sym, pivot=p).value for p in PIVOTS]
        for v in vals[1:]:
            assert v == vals[0]
        # the documented alias for the fourth decomposition
        assert wigner9j(sym, pivot="j34").value == vals[0]
        with pytest.raises(ValueError):
            wigner9j(sym, pivot="nope")


def test_9j_exact_zero_for_every_pivot():
    # {60 60 60; 60 60 60; 60 60 59} vanishes exactly; a floating-point
    # accumulation of its 61 terms leaves residues of order 1e-71
    sym = Symbol9j.from_values(60, 60, 60, 60, 60, 60, 60, 60, 59)
    for p in PIVOTS:
        assert wigner9j(sym, pivot=p).value == SqrtRational.zero(), p


def test_chain_sum_rejects_unpaired_x_triads():
    # {1 2 x; 1 1 1} alone: the x-triads (1, 2, x) and (1, 1, x) each occur
    # once, so their triangle coefficients cannot square out
    with pytest.raises(InternalConsistencyError):
        _chain_sum([(2, 4, X, 2, 2, 2)], lambda tx: tx + 1)
    # three uses of one x-triad and one of another: still unpaired
    with pytest.raises(InternalConsistencyError):
        _chain_sum([(2, 2, X, 2, 2, 2), (2, 2, X, 4, 2, 2)], lambda tx: tx + 1)


def test_chain_series_rejects_x_outside_slot_c():
    # the orthogonality pair {1 1 x; 1 1 1}{1 1 x; 1 1 1} with x moved to
    # another slot, or written in slot c and in one more
    for slot in (0, 1, 3, 4, 5):
        for six in ((2,) * slot + (X,) + (2,) * (5 - slot),
                    (2, 2, X, 2, 2, 2)[:slot] + (X,) + (2, 2, X, 2, 2, 2)[slot + 1:]):
            with pytest.raises(InternalConsistencyError, match="slot c"):
                _chain_series([six, six], lambda tx: tx + 1)


def test_long_chain_by_binary_splitting():
    """An orthogonality pair with all four spins 300 sums 601 x, more than
    ``_CHAIN_HORNER`` steps, so its chain goes through ``_split``: it equals
    the same chain by Horner's rule and the closed form delta_pq / (2p+1)."""
    split, steps = exact._split, []

    def recording(lo, hi, *lists):
        steps.append(hi - lo)
        return split(lo, hi, *lists)

    s = H(600)
    for q in (s, H(598)):
        steps.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exact, "_split", recording)
            lhs, rhs = orthogonality_sides(s, s, s, s, s, q)
        assert max(steps) == 600 > exact._HORNER
        assert lhs == rhs
        assert (lhs == SqrtRational.of(Fraction(1, 601))) == (q == s)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exact, "_CHAIN_HORNER", 601)
            mp.setattr(exact, "_split", recording)
            steps.clear()
            assert orthogonality_sides(s, s, s, s, s, q)[0] == lhs
        assert steps == []


# ----------------------------------------------------------------------
# Oracle: the chain sum as a product of standalone exact 6j per term
# ----------------------------------------------------------------------

def _oracle_sum(terms) -> SqrtRational:
    """Sum of SqrtRational terms that share one radicand."""
    nonzero = [t for t in terms if not t.is_zero]
    assert len({t.rad for t in nonzero}) <= 1, nonzero
    total = sum((t.sign * t.rat for t in nonzero), Fraction(0))
    return SqrtRational(1, total, nonzero[0].rad) if total else SqrtRational.zero()


def _oracle_9j_terms(sym, pivot):
    g = sym.grid
    odd_r = (sym.r_total().twice // 2) % 2 == 1
    phase = 1
    if pivot == "j2":
        g = (g[2], g[1], g[0])
        phase = -1 if odd_r else 1
    elif pivot == "j12":
        g = tuple((row[0], row[2], row[1]) for row in g)
        g = (g[2], g[1], g[0])
    elif pivot == "j5":
        g = tuple((row[0], row[2], row[1]) for row in g)
        phase = -1 if odd_r else 1
    pairs = ((g[0][0], g[2][2]), (g[0][1], g[1][2]), (g[1][0], g[2][1]))
    if len({(p.twice + q.twice) % 2 for p, q in pairs}) != 1:
        return []
    lo = max(abs(p.twice - q.twice) for p, q in pairs)
    hi = min(p.twice + q.twice for p, q in pairs)
    terms = []
    for tx in range(lo, hi + 1, 2):
        x = H(tx)
        s1 = wigner6j(g[0][0], g[0][1], g[0][2], g[1][2], g[2][2], x)
        s2 = wigner6j(g[1][0], g[1][1], g[1][2], g[0][1], x, g[2][1])
        s3 = wigner6j(g[2][0], g[2][1], g[2][2], x, g[0][0], g[1][0])
        sign = -1 if tx % 2 else 1
        terms.append((x, s1 * s2 * s3 * (phase * sign * (tx + 1))))
    return terms


def _oracle_3nj_terms(sym):
    """[(x, signed chain term)] of the first-kind chain of sym, each term a
    product of standalone 6j."""
    n, j, k, l = sym.n, sym.j, sym.k, sym.l
    if len({(a.twice + b.twice) % 2 for a, b in zip(j, k)}) != 1:
        return []
    lo = max(abs(a.twice - b.twice) for a, b in zip(j, k))
    hi = min(a.twice + b.twice for a, b in zip(j, k))
    terms = []
    for tx in range(lo, hi + 1, 2):
        twice_exp = sym.r_total().twice + (n - 1) * tx
        sign = -1 if (twice_exp // 2) % 2 else 1
        x = H(tx)
        prod = SqrtRational.of(sign * (tx + 1))
        for p in range(n - 1):
            prod = prod * wigner6j(j[p], k[p], x, k[p + 1], j[p + 1], l[p])
        terms.append((x, prod * wigner6j(j[n - 1], k[n - 1], x, j[0], k[0], l[n - 1])))
    return terms


def _oracle_3nj(sym):
    return _oracle_sum(t for _, t in _oracle_3nj_terms(sym))


def test_9j_engine_matches_6j_product_oracle():
    """Every pivot, half-integer spins and exact zeros included: value and
    term trace equal the products of standalone 6j exactly."""
    rng = random.Random(71)
    zeros = half = 0
    for _ in range(40):
        sym = random_valid_9j(rng, tmax=13)
        half += any(v.twice % 2 for v in sym.grid[0] + sym.grid[1] + sym.grid[2])
        for p in PIVOTS:
            res = wigner9j(sym, pivot=p)
            expect = _oracle_9j_terms(sym, p)
            assert res.terms == expect, (sym, p)
            assert res.value == _oracle_sum(t for _, t in expect), (sym, p)
            zeros += res.value.is_zero
    sym = Symbol9j.from_values(60, 60, 60, 60, 60, 60, 60, 60, 59)
    for p in PIVOTS:
        res = wigner9j(sym, pivot=p)
        assert res.terms == _oracle_9j_terms(sym, p)
        assert res.value.is_zero
    assert zeros > 0 and half > 0, (zeros, half)


#: Per pivot, the 9j symmetry image (slots in grid order) whose j24 chain
#: is the pivot's, and whether the image carries (-1)^R (an odd number of
#: row and column exchanges).
_PIVOT_IMAGES = {
    "j24": (("j1", "j2", "j12", "s", "j4", "j34", "j13", "j24", "j5"), False),
    "j2": (("j13", "j24", "j5", "s", "j4", "j34", "j1", "j2", "j12"), True),
    "j12": (("j13", "j5", "j24", "s", "j34", "j4", "j1", "j12", "j2"), False),
    "j5": (("j1", "j12", "j2", "s", "j34", "j4", "j13", "j5", "j24"), True),
    "j34": (("j1", "j12", "j2", "s", "j34", "j4", "j13", "j5", "j24"), True),
}


def test_9j_equals_signed_3nj_of_its_chain():
    """At every pivot (and the j34 alias), wigner9j(sym) == (-1)^R
    wigner3nj(sym.as_chain()) exactly, and its terms are those of the 6j
    product oracle of the 3nj chain of the pivot's symmetry image, times
    (-1)^R unless the image carries that sign: on 40 seeded 9j with
    half-integer spins and exact zeros among them (one drawn, plus the
    {60 ... 59} zero)."""
    rng = random.Random(73)
    zeros = half = 0
    syms = [random_valid_9j(rng, tmax=13) for _ in range(40)]
    syms.append(Symbol9j.from_values(60, 60, 60, 60, 60, 60, 60, 60, 59))
    for sym in syms:
        odd_r = sym.r_total().twice // 2 % 2
        chain = wigner3nj(sym.as_chain())
        for p, (slots, signed) in _PIVOT_IMAGES.items():
            res = wigner9j(sym, pivot=p)
            assert res.value == (-chain if odd_r else chain), (sym, p)
            image = Symbol9j(*(getattr(sym, slot) for slot in slots))
            sign = -1 if odd_r and not signed else 1
            assert res.terms == [(x, t * sign) for x, t in _oracle_3nj_terms(image.as_chain())], (
                sym, p)
        zeros += res.value.is_zero
        half += any(v.twice % 2 for v in sym.grid[0] + sym.grid[1] + sym.grid[2])
    assert zeros > 1 and half > 0, (zeros, half)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_3nj_engine_matches_6j_product_oracle(n):
    rng = random.Random(100 + n)
    for _ in range(8):
        sym = random_valid_chain(rng, n, tmax=12 if n < 6 else 8)
        assert wigner3nj(sym) == _oracle_3nj(sym), sym


def test_3nj_engine_with_equal_columns():
    """Equal (j_p, k_p) columns repeat an x-triad beyond two uses; each use
    pair contributes its own squared triangle coefficient."""
    two_equal = Symbol3nj((H(4), H(4), H(3), H(5), H(4)), (H(6), H(6), H(5), H(5), H(6)),
                          (H(2), H(3), H(4), H(3), H(4)))
    all_equal = Symbol3nj((H(4),) * 5, (H(6),) * 5, (H(2), H(4), H(6), H(8), H(4)))
    for sym in (two_equal, all_equal):
        assert sym.is_valid(), sym
        value = wigner3nj(sym)
        assert not value.is_zero
        assert value == _oracle_3nj(sym)


def _window(sym):
    """Twice values of x in wigner3nj's chain window for sym."""
    lo = max(abs(a.twice - b.twice) for a, b in zip(sym.j, sym.k))
    hi = min(a.twice + b.twice for a, b in zip(sym.j, sym.k))
    return range(lo, hi + 1, 2)


def _chain_any_parity(rng, n, tmax, ring=False):
    """A valid first-kind 3nj symbol with spins of either parity in every
    slot, so x may be half-integer; with ``ring``, k = j and x starts at 0."""
    h = HalfInt.from_twice
    while True:
        tl = [rng.randrange(0, tmax + 1) for _ in range(n)]
        tj = [rng.randrange(0, tmax + 1)]
        for i in range(2 * n - 1):
            a, b = tj[-1], tl[i % n]
            if i == n - 1 and ring:
                break
            tj.append(rng.randrange(abs(a - b), a + b + 1, 2))
        tj, tk = tj[:n], (tj[:n] if ring else tj[n:])
        sym = Symbol3nj(tuple(map(h, tj)), tuple(map(h, tk)), tuple(map(h, tl)))
        if sym.is_valid() and len(_window(sym)):
            return sym


def test_chain_recurrence_edge_cases():
    """The chain engine, which steps each 6j in x by its three-term
    recurrence after the two lowest x, against products of standalone 6j:
    windows of exactly 1, 2 and 3 x, integer and half-integer x, and
    windows that start at x = 0 (k = j)."""
    rng = random.Random(211)
    seen = Counter()
    while min((seen[key] for key in ((1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (3, 1))),
              default=0) < 2:
        sym = _chain_any_parity(rng, rng.choice((3, 4, 5)), tmax=12)
        xs = _window(sym)
        key = (len(xs), xs[0] % 2)
        if len(xs) <= 3 and seen[key] < 2:
            seen[key] += 1
            assert wigner3nj(sym) == _oracle_3nj(sym), sym
    nonzero = 0
    for n in (3, 4, 6):
        for _ in range(4):
            sym = _chain_any_parity(rng, n, tmax=10, ring=True)
            assert sym.j == sym.k and _window(sym)[0] == 0, sym
            value = wigner3nj(sym)
            assert value == _oracle_3nj(sym), sym
            nonzero += not value.is_zero
    assert nonzero > 6, nonzero
    # the Racah sum of the second 6j is exactly 0 at the seventh of ten x,
    # and the recurrence steps across it
    zero = Symbol3nj((H(10), H(10), H(10)), (H(14), H(12), H(12)), (H(2), H(2), H(8)))
    a, b, _, d, e, f = _chain_sixjs(zero)[1]
    xs = _window(zero)
    run = exact._racah_run(a, b, d, e, f, xs[0], xs[-1])
    assert len(run) == 10 and run[6] == 0 and run[7] != 0
    assert wigner3nj(zero) == _oracle_3nj(zero)


def _racah_form(rng, tmax, ring=False):
    """Twice values (a, b, d, e, f) of a 6j {a b x; d e f} whose triads
    without x hold and whose x window is not empty, with that window's
    ends; with ``ring``, a = b and d = e, so the window starts at x = 0."""
    while True:
        a, d, f = (rng.randrange(0, tmax + 1) for _ in range(3))
        b, e = (a, d) if ring else (rng.randrange(0, tmax + 1) for _ in range(2))
        lo, hi = max(abs(a - b), abs(d - e)), min(a + b, d + e)
        if ((a + b - d - e) % 2 == 0 and lo <= hi
                and triad_ok(a, e, f) and triad_ok(d, b, f)):
            return (a, b, d, e, f), lo, hi


def test_racah_run_matches_direct_sums_at_every_x():
    """``_racah_run`` against a direct Racah sum at every x of its run, on
    seeded forms: runs from the form's own bound max(|a-b|, |d-e|), which
    start from one term, runs from above it and runs from x = 0, which sum
    their first two x directly, with integer and half-integer x and twice
    spins up to 2000 (runs of at most 25 x)."""
    rng = random.Random(20251)
    seen = Counter()
    for case in range(120):
        tmax = 2000 if case % 4 == 0 else 40
        form, lo, hi = _racah_form(rng, tmax, ring=case % 6 == 5)
        start = lo if case % 3 else min(hi, lo + 2 * rng.randint(1, 10))
        stop = min(hi, start + 2 * rng.randint(0, 24))
        run = exact._racah_run(*form, start, stop)
        a, b, d, e, f = form
        assert run == [exact._racah_int((a, b, tx, d, e, f))
                       for tx in range(start, stop + 1, 2)], (form, start, stop)
        seen["own bound" if start == lo > 0 else "x = 0" if start == 0
             else "above own bound"] += 1
        seen["half-integer x"] += start % 2
        seen["spins above 500"] += max(form) > 1000
    assert min(seen.values()) >= 8 and len(seen) == 5, seen


def test_chain_recurrence_at_every_9j_pivot():
    """The 9j chain writes its three 6j with x in slot c by the 6j
    symmetries: term traces equal products of standalone 6j, written as
    the 9j decomposition has them, at every pivot over windows of at
    least 5 x."""
    rng = random.Random(223)
    done = 0
    while done < 4:
        sym = random_valid_9j(rng, tmax=24)
        results = {p: wigner9j(sym, pivot=p) for p in PIVOTS}
        if min(len(r.terms) for r in results.values()) < 5:
            continue
        for p, res in results.items():
            assert res.terms == _oracle_9j_terms(sym, p), (sym, p)
            assert res.value == results["j24"].value, (sym, p)
        done += 1


def test_chain_recurrence_checks_exact_division(monkeypatch):
    """A wrong Racah sum at the second x breaks the recurrence's exact
    division, which raises rather than returning a wrong value."""
    sym = Symbol3nj((H(8), H(6), H(4), H(8)), (H(10), H(10), H(12), H(10)),
                    (H(8), H(8), H(10), H(6)))
    second = _window(sym)[1]
    assert len(_window(sym)) >= 3
    right = exact._racah_int
    monkeypatch.setattr(exact, "_racah_int", lambda six: right(six) + (six[2] == second))
    with pytest.raises(InternalConsistencyError, match="recurrence"):
        wigner3nj(sym)


def test_chain_recurrence_at_exact_large_scale():
    """Three seeded 15j at the bench's exact-large scale (twice spins
    108-130, windows of about 100 x) against products of standalone 6j."""
    rng = random.Random(229)
    h = HalfInt.from_twice
    for _ in range(3):
        parity = rng.randrange(2)
        tj, tk = ([2 * rng.randint(54, 64) + parity for _ in range(5)] for _ in range(2))
        tl = [2 * rng.randint(54, 64) for _ in range(5)]
        sym = Symbol3nj(tuple(map(h, tj)), tuple(map(h, tk)), tuple(map(h, tl)))
        assert sym.is_valid() and len(_window(sym)) > 80, sym
        value = wigner3nj(sym)
        assert not value.is_zero
        assert value == _oracle_3nj(sym), sym


def _two_loop_triads(sym: Symbol3nj) -> list:
    """The triads of a first-kind 3nj as two hand loops over its HalfInts:
    along j closed into k_1 by l_n, then along k closed into j_1."""
    j, k, l, n = sym.j, sym.k, sym.l, sym.n
    out = [(j[i], l[i], j[i + 1]) for i in range(n - 1)] + [(j[n - 1], l[n - 1], k[0])]
    return out + [(k[i], l[i], k[i + 1]) for i in range(n - 1)] + [(k[n - 1], l[n - 1], j[0])]


def _rows_and_columns(sym: Symbol9j) -> list:
    """The triads of a 9j: its three rows and three columns, HalfInts."""
    g = sym.grid
    return [tuple(row) for row in g] + [tuple(g[i][c] for i in range(3)) for c in range(3)]


def _random_9j(rng, valid: bool) -> Symbol9j:
    """A seeded 9j: valid, or with nine twice spins drawn from -2..12."""
    if valid:
        return random_valid_9j(rng, tmax=16)
    return Symbol9j.from_twice(*(rng.randrange(-2, 13) for _ in range(9)))


def _random_3nj(rng, n: int, valid: bool) -> Symbol3nj:
    """A seeded first-kind 3nj: valid, or with twice spins from -2..12."""
    if valid:
        return _chain_any_parity(rng, n, tmax=12)
    return Symbol3nj(*(tuple(H(rng.randrange(-2, 13)) for _ in range(n)) for _ in range(3)))


def test_triads_are_the_ring_triads():
    """A 3nj's triads are the two hand loops' list in its order, n = 3..6;
    a 9j's are its rows and columns, as a multiset of twice triples, read
    in the ring order of its n = 3 chain."""
    rng = random.Random(32)
    for n in (3, 4, 5, 6):
        for i in range(30):
            sym = _random_3nj(rng, n, valid=i % 2 == 0)
            assert sym.triads() == _two_loop_triads(sym), sym

    def multiset(triads):
        return sorted(sorted(x.twice for x in tri) for tri in triads)

    for i in range(60):
        sym = _random_9j(rng, valid=i % 2 == 0)
        assert multiset(sym.triads()) == multiset(_rows_and_columns(sym)), sym
        assert sym.triads() == sym.as_chain().triads()


def _3nj_of_twice(*t) -> Symbol3nj:
    """A 3nj from its rows j, k, l of twice values, one after the other."""
    n = len(t) // 3
    return Symbol3nj(*(tuple(map(H, t[i:i + n])) for i in range(0, 3 * n, n)))


def test_is_valid_agrees_with_halfint_triad_oracle():
    """is_valid() of 9j and 3nj symbols, read on twice spins, agrees with
    triad_allowed on the HalfInt rows and columns or hand-loop triads, on
    seeded symbols: valid ones, each of them with one spin moved by
    up to 3, so that every triad is at some point the only one that fails,
    and draws from -1..6 with negative spins."""
    rng = random.Random(33)
    shapes = [("9j", lambda: random_valid_9j(rng, tmax=12), Symbol9j.from_twice,
               lambda sym: [x.twice for x in exact._GRID_VALUES(sym)], _rows_and_columns)]
    shapes += [(n, lambda n=n: _chain_any_parity(rng, n, tmax=12), _3nj_of_twice,
                lambda sym: [x.twice for x in sym.j + sym.k + sym.l], _two_loop_triads)
               for n in (3, 4, 5, 6)]
    for shape, valid, build, flat, oracle_triads in shapes:
        sole, negative = set(), 0
        for _ in range(20):
            twice = flat(valid())
            size = len(twice)
            moved = [twice[:i] + [twice[i] + d] + twice[i + 1:]
                     for i in range(size) for d in (-6, -4, -2, -1, 1, 2, 4, 6)]
            drawn = [[rng.randrange(-1, 7) for _ in range(size)] for _ in range(40)]
            for t in [twice] + moved + drawn:
                sym = build(*t)
                ok = [triad_allowed(*tri) for tri in oracle_triads(sym)]
                assert sym.is_valid() == all(ok), (shape, t)
                if ok.count(False) == 1:
                    sole.add(ok.index(False))
                negative += min(t) < 0 and not sym.is_valid()
        assert sole == set(range(len(ok))) and negative, shape


@pytest.mark.parametrize("n", [4, 5, 6])
def test_3nj_reflection(n):
    """Running the 2n-cycle backwards is an exact symmetry; it reorders the
    chain's 6j and their x-pairs, so the two values come from different
    chains."""
    rng = random.Random(300 + n)
    half = 0
    for _ in range(8):
        sym = _chain_any_parity(rng, n, tmax=10)
        ref = sym.reflected()
        assert ref.reflected() == sym
        assert ref != sym
        assert sorted(sorted(t.twice for t in tri) for tri in ref.triads()) == sorted(
            sorted(t.twice for t in tri) for tri in sym.triads())
        half += any(v.twice % 2 for v in sym.j + sym.k + sym.l)
        assert wigner3nj(ref) == wigner3nj(sym), sym
    assert half > 0


def _chain_sixjs(sym):
    """The twice-value 6j of wigner3nj's chain for sym, X in the x slot."""
    n = sym.n
    j, k, l = ([v.twice for v in row] for row in (sym.j, sym.k, sym.l))
    return ([(j[p], k[p], X, k[p + 1], j[p + 1], l[p]) for p in range(n - 1)]
            + [(j[n - 1], k[n - 1], X, j[0], k[0], l[n - 1])])


def _zmin_triads(six):
    """Indices of the triads (abc, aef, dbf, dec) whose sum sets the lower
    end of the 6j's Racah window (twice values)."""
    a, b, c, d, e, f = six
    t = ((a + b + c) // 2, (a + e + f) // 2, (d + b + f) // 2, (d + e + c) // 2)
    return {i for i, v in enumerate(t) if v == max(t)}


def test_chain_work_count(monkeypatch):
    """A chain makes one ledger call, a square root that holds the triads
    without x and the squared triangle coefficients of the lowest x, and
    never calls the standalone 6j.  Each of its n 6j runs its Racah sum
    once (``_racah_run``).  A run that starts at its 6j's own bound
    max(|a-b|, |d-e|) > 0 takes one multinomial head there and no sum;
    every other run sums its two lowest x directly (one for a window of
    one x), whatever the window's length; every later x comes from the
    three-term recurrence.  That holds when the lower end of a Racah
    window moves from a triad without x to one with x, and across an x
    whose term is exactly 0.  A standalone 6j and a 3j fold their first
    term into their square root: one ledger call per symbol, a repeat, a
    symmetry image or a window summed by binary splitting included.
    ``_combine`` is where every ledger call factors, so counting it
    catches any other route to the ledger."""
    counts = Counter()
    runs = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    def recording(*args):
        runs.append(args)
        return racah_run(*args)

    assert not hasattr(DEFAULT_LEDGER, "factorial_quotient")
    for name in ("sqrt_factorial_quotient", "_combine"):
        monkeypatch.setattr(DEFAULT_LEDGER, name, counting(name, getattr(DEFAULT_LEDGER, name)))
    monkeypatch.setattr(exact, "wigner6j", counting("wigner6j", exact.wigner6j))
    monkeypatch.setattr(exact, "_racah_series", counting("racah", exact._racah_series))
    monkeypatch.setattr(exact, "_multinomial", counting("head", exact._multinomial))
    racah_run = exact._racah_run
    monkeypatch.setattr(exact, "_racah_run", recording)

    def one_ledger_call(what):
        assert counts["sqrt_factorial_quotient"] == 1, (what, counts)
        assert counts["_combine"] == 1, (what, counts)

    def racah_work(what, n):
        """The sums and heads of the last chain's n runs, by the rule."""
        assert len(runs) == n, (what, runs)
        own = [lo and lo == max(abs(a - b), abs(d - e)) for a, b, d, e, f, lo, hi in runs]
        direct = sum(min(2, (hi - lo) // 2 + 1)
                     for (*_, lo, hi), one in zip(runs, own) if not one)
        assert counts["racah"] == direct, (what, runs, counts)
        assert counts["head"] == direct + sum(own), (what, runs, counts)
        runs.clear()
        return sum(own)

    own_starts = 0
    sym = Symbol9j.from_values(5, 4, 3, 2, 3, 4, 4, 5, 2)
    for p in PIVOTS:
        counts.clear()
        res = wigner9j(sym, pivot=p)
        assert not res.value.is_zero
        assert len(res.terms) > 1, p
        one_ledger_call(p)
        assert counts["wigner6j"] == 0, (p, counts)
        own_starts += racah_work(p, 3)
    rng = random.Random(17)
    chains = [random_valid_chain(rng, n, tmax=16) for n in (3, 5, 6)]
    # in its third 6j the lower end of the Racah window moves from the
    # triad (k4 k3 l3), without x, to (k4 j4 x)
    switch = Symbol3nj((H(8), H(6), H(4), H(8)), (H(10), H(10), H(12), H(10)),
                       (H(8), H(8), H(10), H(6)))
    # the term of the seventh x is exactly 0
    zero = Symbol3nj((H(10), H(10), H(10)), (H(14), H(12), H(12)), (H(2), H(2), H(8)))
    windows = []
    for chain in chains + [switch, zero]:
        counts.clear()
        value = wigner3nj(chain)
        one_ledger_call(chain)
        assert counts["wigner6j"] == 0, (chain, counts)
        windows.append(len(_window(chain)))
        own_starts += racah_work(chain, chain.n)
        assert value == _oracle_3nj(chain), chain
    assert max(windows) >= 10, windows
    # both kinds of run occur: 19 of the 33 runs start from one term
    assert own_starts == 19, own_starts
    sixjs = _chain_sixjs(switch)
    lo = max(abs(a - b) for a, b, *_ in sixjs)
    hi = min(a + b for a, b, *_ in sixjs)
    third = [(lo if v is X else v for v in sixjs[2]), (hi if v is X else v for v in sixjs[2])]
    assert [_zmin_triads(tuple(s)) for s in third] == [{2}, {3}]
    _, _, ts, _, _ = _chain_series(_chain_sixjs(zero), lambda tx: tx + 1)
    assert [t == 0 for t in ts].index(True) == 6 and ts[-1] != 0
    assert not wigner3nj(zero).is_zero
    six = (5, 4, 3, 2, 3, 4)
    for spins in (six, six, (4, 5, 3, 3, 2, 4), (2, 3, 3, 5, 4, 4), (700,) * 6):
        counts.clear()
        assert not wigner6j(*spins).is_zero
        one_ledger_call(spins)
        assert counts["racah"] == 1 and counts["head"] == 0, (spins, counts)
    for spins in ((5, 4, 3, 1, -2, 1), (H(7), 4, H(9), H(-3), 2, H(-1)),
                  (700, 650, 600, 10, -30, 20)):
        counts.clear()
        assert not wigner3j(*spins).is_zero
        one_ledger_call(spins)


def test_9j_matches_sympy_oracle():
    """Exact equality with sympy.physics.wigner on random small 9j symbols,
    half-integer spins included."""
    wigner = pytest.importorskip("sympy.physics.wigner")
    import sympy

    def half(h):
        return sympy.Rational(h.twice, 2)

    rng = random.Random(59)
    for _ in range(30):
        sym = random_valid_9j(rng, tmax=7)
        ours = wigner9j(sym).value
        theirs = wigner.wigner_9j(*(half(getattr(sym, s)) for s in
                                    ("j1", "j2", "j12", "s", "j4", "j34", "j13", "j24", "j5")),
                                  prec=None)
        expect = (ours.sign * sympy.Rational(ours.rat.numerator, ours.rat.denominator)
                  * sympy.sqrt(int(ours.rad)))
        assert theirs == expect, (sym, ours, theirs)


def test_9j_term_trace_sums_to_value():
    with mpmath.workdps(40):
        sym = Symbol9j.from_values(5, 4, 3, 2, 3, 4, 4, 5, 2)
        res = wigner9j(sym, pivot="j2")
        assert mpf_close(sum(to_mpf(t) for _, t in res.terms), to_mpf(res.value), -35)
        assert res.pivot == "j2"
        assert len(res.terms) >= 2


def test_9j_classical_symmetries():
    # transpose invariance; odd column swap flips by (-1)^R
    with mpmath.workdps(45):
        rng = random.Random(13)
        for _ in range(6):
            sym = random_valid_9j(rng, tmax=14)
            g = sym.grid
            transpose = Symbol9j(*(g[i][j] for j in range(3) for i in range(3)))
            v = wigner9j(sym).value
            vt = wigner9j(transpose).value
            assert v == vt
            swapped = Symbol9j(g[0][1], g[0][0], g[0][2],
                               g[1][1], g[1][0], g[1][2],
                               g[2][1], g[2][0], g[2][2])
            r_twice = sym.r_total().twice
            sign = -1 if (r_twice // 2) % 2 else 1
            vs = wigner9j(swapped).value
            assert vs == sign * v


def test_9j_fig4d_symbol_finite_and_pivot_stable():
    with mpmath.workdps(50):
        sym = Symbol9j.from_values("51/2", "53/2", 28, "1/2", "47/2", 24, 25, 27, 25)
        vals = [wigner9j(sym, pivot=p).value for p in PIVOTS]
        assert not vals[0].is_zero
        for v in vals[1:]:
            assert v == vals[0]


def test_9j_rewritten_decomposition_matches():
    """The constant-phase, offset-indexed form of the j24 decomposition
    equals the standard chain sum (terms outside the narrow window vanish
    identically)."""
    with mpmath.workdps(45):
        for values in ((5, 4, 3, 2, 3, 4, 4, 5, 2),
                       ("51/2", "53/2", 28, "1/2", "47/2", 24, 25, 27, 25)):
            sym = Symbol9j.from_values(*values)
            assert sym.is_valid()
            s, j24 = sym.s, sym.j24
            mu = sym.j13 - sym.j1
            nu = sym.j34 - sym.j4
            total = mpmath.mpf(0)
            phase_t = (2 * j24 + 2 * s).twice
            const_sign = -1 if (phase_t // 2) % 2 else 1
            for txi in range(-s.twice, s.twice + 1, 2):
                x = j24 + HalfInt.from_twice(txi)
                if x.twice < 0:
                    continue
                prod = wigner6j(sym.s, sym.j4, sym.j34, sym.j2, x, sym.j24)
                prod = prod * wigner6j(sym.j13, sym.j24, sym.j5, x, sym.j1, sym.s)
                prod = prod * wigner6j(sym.j1, sym.j2, sym.j12, sym.j34, sym.j5, x)
                total += const_sign * x.dim * to_mpf(prod)
            ref = to_mpf(wigner9j(sym, pivot="j24").value)
            assert mpf_close(total, ref, -35)


def test_15j_zero_l_collapse():
    with mpmath.workdps(40):
        for twice_j in (2, 3, 8):
            j = H(twice_j)
            val = wigner15j([j] * 5, [j] * 5, [HalfInt(0)] * 5)
            expect = mpmath.mpf((-1) ** twice_j) / (twice_j + 1) ** 4
            assert mpf_close(to_mpf(val), expect, -35)


def test_15j_symmetries():
    with mpmath.workdps(45):
        rng = random.Random(3)
        for _ in range(4):
            sym = random_valid_chain(rng, 5, tmax=8)
            v = wigner15j(sym.j, sym.k, sym.l)
            for shift in (1, 3, 5, 7):
                rot = sym.rotated(shift)
                w = wigner15j(rot.j, rot.k, rot.l)
                assert w == v, shift
            ex = sym.rows_exchanged()
            assert wigner15j(ex.j, ex.k, ex.l) == v


def test_3nj_matches_15j_and_rotations():
    with mpmath.workdps(45):
        rng = random.Random(23)
        for _ in range(6):
            sym = random_valid_chain(rng, 5, tmax=10)
            a = wigner3nj(sym)
            b = wigner15j(sym.j, sym.k, sym.l)
            assert a == b
            c = wigner3nj(sym.rotated(2))
            assert c == a


def test_12j_zero_l_reduces_to_9j():
    """n = 4 with l4 = 0 forces k1 = j4, j1 = k4; the chain collapses to a
    9j symbol with a known sign and normalization."""
    with mpmath.workdps(45):
        rng = random.Random(31)
        done = 0
        while done < 8:
            base = random_valid_chain(rng, 4, tmax=8)
            j, k, l = list(base.j), list(base.k), list(base.l)
            l[3] = HalfInt(0)
            k[0] = j[3]
            j[0] = k[3]
            try:
                sym = Symbol3nj(tuple(j), tuple(k), tuple(l))
            except ValueError:
                continue
            if not sym.is_valid():
                continue
            lhs = to_mpf(wigner3nj(sym))
            # surviving 3-cycle = 9j with grid {j2 j3 l2; j1 l3 k3; l1 k1 k2};
            # the dropped 6j contributes (-1)^(j4+k4+x)/sqrt(d_j4 d_k4) and the
            # leftover phases combine to (-1)^(R_4 + j4 + k4 + 2j1 + 2k1)
            nine = Symbol9j(sym.j[1], sym.j[2], sym.l[1],
                            sym.j[0], sym.l[2], sym.k[2],
                            sym.l[0], sym.k[0], sym.k[1])
            exp_t = (sym.r_total() + sym.j[3] + sym.k[3]
                     + 2 * sym.j[0] + 2 * sym.k[0]).twice
            assert exp_t % 2 == 0
            sign = -1 if (exp_t // 2) % 2 else 1
            rhs = sign * to_mpf(wigner9j(nine).value) / mpmath.sqrt(sym.j[3].dim * sym.k[3].dim)
            assert mpf_close(lhs, rhs, -30), (sym, lhs, rhs)
            done += 1


def test_3nj_empty_window_is_zero():
    # j/k windows with mismatched parity: exact zero
    sym = Symbol3nj((H(1), H(2), H(2)), (H(2), H(2), H(2)), (H(3), H(4), H(3)))
    assert not sym.is_valid() or wigner3nj(sym).is_zero


def test_pentagon_and_orthogonality_small():
    assert pentagon_mismatches(random.Random(41), 20, tmax=14) == 0
    rng = random.Random(43)
    for _ in range(20):
        inst = random_orthogonality_instance(rng, tmax=12)
        if inst is None:
            continue
        lhs, rhs = orthogonality_sides(*inst)
        assert lhs == rhs, inst


@pytest.mark.parametrize("sampler, digest", [
    (random_pentagon_instance, "4c0d6a77d354ee354d9f44dd8cec06cd705574fe7bde677560c1869a2634767c"),
    (random_orthogonality_instance,
     "b15bcaa4f50a2459f1712bafc29613ece07ca26e38bc29dc66339bf73f527061"),
    (random_valid_9j, "29e365c02876d46a93be00b8a5f34eae2a2cbc15cf1d70459f641df6b9680b2a"),
])
def test_identity_samplers_draw_pinned_instances(sampler, digest):
    """The first 50 instances of each ``verify identities`` sampler at seed
    2011, as twice spins, hash to the digest they had when the samplers
    still drew on HalfInt windows: the same rng calls, the same instances."""
    rng = random.Random(2011)
    drawn = []
    for _ in range(50):
        inst = sampler(rng)
        spins = inst if isinstance(inst, tuple) else [v for row in inst.grid for v in row]
        drawn.append([v.twice for v in spins])
    assert hashlib.sha256(repr(drawn).encode()).hexdigest() == digest
