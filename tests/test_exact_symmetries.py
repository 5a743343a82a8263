"""Property tests: exact Regge 6j and 9j symmetries under hypothesis-generated
symbols."""

from __future__ import annotations

from itertools import permutations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from wigner_asym.exact import Symbol9j, wigner6j, wigner9j  # noqa: E402
from wigner_asym.halfint import HalfInt, triad_allowed  # noqa: E402

TMAX = 16   # twice-values: every spin <= 8


def _perm_is_odd(perm) -> bool:
    inversions = sum(1 for i in range(3) for j in range(i + 1, 3) if perm[i] > perm[j])
    return inversions % 2 == 1


def _coupled(draw, t1, t2):
    """A twice-spin <= TMAX that couples with t1 and t2 to a valid triad."""
    lo, hi = abs(t1 - t2), min(t1 + t2, TMAX)
    return lo + 2 * draw(st.integers(0, (hi - lo) // 2))


@st.composite
def valid_6j(draw):
    """Twice-spins (a, b, c, d, e, f) <= TMAX of a 6j {a b c; d e f} whose
    four triads are valid."""
    spin = st.integers(0, TMAX)
    ta, tb, te = draw(spin), draw(spin), draw(spin)
    tc, tf = _coupled(draw, ta, tb), _coupled(draw, ta, te)
    # the (b, f) and (e, c) windows share parity: both sums are congruent
    # to ta + tb + te
    lo = max(abs(tb - tf), abs(te - tc))
    hi = min(tb + tf, te + tc, TMAX)
    hypothesis.assume(lo <= hi)
    td = lo + 2 * draw(st.integers(0, (hi - lo) // 2))
    return ta, tb, tc, td, te, tf


def _regge_images(t):
    """The three Regge images of {a b c; d e f}, each fixing one column:
    {a b c; d e f} = {a, s-b, s-c; d, s-e, s-f} with s = (b+c+e+f)/2, and
    likewise with the (b, e) or the (c, f) column fixed."""
    out = []
    for fixed in range(3):
        top = [t[i] for i in range(3) if i != fixed]
        bottom = [t[i + 3] for i in range(3) if i != fixed]
        ts = (sum(top) + sum(bottom)) // 2
        image = list(t)
        for i in range(3):
            if i != fixed:
                image[i], image[i + 3] = ts - t[i], ts - t[i + 3]
        out.append(tuple(image))
    return out


@settings(max_examples=25, deadline=None)
@given(valid_6j())
def test_6j_regge_symmetries_exact(t):
    """Each Regge image is a valid 6j with exactly the same value.  The 6j
    cache key covers only the 24 tetrahedral layouts, so a Regge image that
    is not one of them is summed afresh."""
    sym = [HalfInt.from_twice(x) for x in t]
    value = wigner6j(*sym)
    for image in _regge_images(t):
        a, b, c, d, e, f = spins = [HalfInt.from_twice(x) for x in image]
        triads = ((a, b, c), (a, e, f), (d, b, f), (d, e, c))
        assert all(triad_allowed(*tri) for tri in triads), image
        assert wigner6j(*spins) == value, (t, image)


@st.composite
def valid_9j(draw):
    """Nine twice-spins <= TMAX with all six row and column triads valid."""

    def coupled(t1, t2):
        lo, hi = abs(t1 - t2), min(t1 + t2, TMAX)
        return lo + 2 * draw(st.integers(0, (hi - lo) // 2))

    spin = st.integers(0, TMAX)
    ta, tb, td, te = draw(spin), draw(spin), draw(spin), draw(spin)
    tc, tf = coupled(ta, tb), coupled(td, te)
    tg, th = coupled(ta, td), coupled(tb, te)
    # (tc, tf) and (tg, th) windows share parity, since both sums are
    # congruent to ta + tb + td + te
    lo = max(abs(tc - tf), abs(tg - th))
    hi = min(tc + tf, tg + th, TMAX)
    hypothesis.assume(lo <= hi)
    ti = lo + 2 * draw(st.integers(0, (hi - lo) // 2))
    sym = Symbol9j.from_twice(ta, tb, tc, td, te, tf, tg, th, ti)
    assert sym.is_valid()
    return sym


@settings(max_examples=25, deadline=None)
@given(valid_9j())
def test_9j_all_72_symmetries_exact(sym):
    """Row and column permutations, each odd one contributing (-1)^R,
    combined with transposition: 72 layouts with exactly the same value."""
    g = sym.grid
    r_twice = sym.r_total().twice
    assert r_twice % 2 == 0
    odd_r = (r_twice // 2) % 2 == 1
    value = wigner9j(sym).value
    for rows in permutations(range(3)):
        for cols in permutations(range(3)):
            grid = [[g[r][c] for c in cols] for r in rows]
            flips = _perm_is_odd(rows) + _perm_is_odd(cols)
            expect = -value if odd_r and flips % 2 else value
            for transpose in (False, True):
                layout = [list(col) for col in zip(*grid)] if transpose else grid
                image = Symbol9j(*(x for row in layout for x in row))
                assert wigner9j(image).value == expect, (rows, cols, transpose)
