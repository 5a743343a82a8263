"""Algebraic identity checks for the exact engine, shared by the CLI
``verify identities`` command and the test suite.

The pentagon (Biedenharn-Elliott) identity and the 6j orthogonality
relation are classical consistency conditions tying many 6j values
together; they validate the exact engine without reference to any
external table.  Each is a pair of exact sides, compared with no
tolerance.  The samplers here draw the random instances ``verify
identities`` checks: pentagon and orthogonality spins, and a valid 9j
grid for the pivot-invariance check.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import X, Symbol9j, _chain_sum, wigner6j
from .halfint import HalfInt, _twice_phase, halfint_sum, triad_ok
from .sqrtrat import SqrtRational


def _window(tx: int, ty: int):
    """The twice values (lo, hi) that couple with twice spins tx and ty."""
    return abs(tx - ty), tx + ty


def _sample_coupled(rng, w1, w2):
    """A twice-value in both windows (parities must agree), or None."""
    if (w1[0] % 2) != (w2[0] % 2):
        return None
    lo = max(w1[0], w2[0])
    hi = min(w1[1], w2[1])
    if hi < lo:
        return None
    return rng.randrange(lo, hi + 1, 2)


def random_pentagon_instance(rng, tmax: int = 20):
    """Spins (a..f, p, q, r) with every triad of the pentagon identity valid."""
    for _ in range(1000):
        ta, tb, tc, td, te, tf = (rng.randrange(0, tmax + 1) for _ in range(6))
        # x couples (a,b), (c,d), (e,f): the three windows must share parity
        if not (ta + tb) % 2 == (tc + td) % 2 == (te + tf) % 2:
            continue
        tp = _sample_coupled(rng, _window(ta, td), _window(tc, tb))
        tq = _sample_coupled(rng, _window(tc, tf), _window(te, td))
        tr = _sample_coupled(rng, _window(te, ta), _window(tb, tf))
        if tp is None or tq is None or tr is None or not triad_ok(tp, tq, tr):
            continue
        return tuple(map(HalfInt.from_twice, (ta, tb, tc, td, te, tf, tp, tq, tr)))
    return None


def pentagon_sides(spins):
    """Exact (lhs, rhs) of sum_x (-1)^(R+x) d_x {a b x; c d p}{c d x; e f q}
    {e f x; b a r} = {p q r; e a d}{p q r; f b c}.

    The left side goes through the exact chain engine, the right side
    through two standalone 6j, so the identity cross-checks both paths."""
    a, b, c, d, e, f, p, q, r = spins
    t_r = halfint_sum(spins).twice
    ta, tb, tc, td, te, tf, tp, tq, tr = (v.twice for v in spins)
    lhs = _chain_sum(((ta, tb, X, tc, td, tp), (tc, td, X, te, tf, tq),
                      (te, tf, X, tb, ta, tr)),
                     lambda tx: _twice_phase(t_r + tx, "pentagon phase R + x") * (tx + 1))
    rhs = wigner6j(p, q, r, e, a, d) * wigner6j(p, q, r, f, b, c)
    return lhs, rhs


def random_orthogonality_instance(rng, tmax: int = 16):
    """(a, b, c, d, p, q) with valid couplings for the 6j orthogonality sum."""
    for _ in range(1000):
        ta, tb, tc, td = (rng.randrange(0, tmax + 1) for _ in range(4))
        if (ta + tb) % 2 != (tc + td) % 2:
            continue
        tp = _sample_coupled(rng, _window(ta, td), _window(tc, tb))
        tq = _sample_coupled(rng, _window(ta, td), _window(tc, tb))
        if tp is None or tq is None:
            continue
        return tuple(map(HalfInt.from_twice, (ta, tb, tc, td, tp, tq)))
    return None


def orthogonality_sides(a, b, c, d, p, q):
    """Exact (lhs, rhs) of sum_x d_x {a b x; c d p}{a b x; c d q} = delta_pq / d_p.

    The left side goes through the exact chain engine, the right side is
    the closed form, so the identity checks the engine against it."""
    ta, tb, tc, td, tp, tq = (v.twice for v in (a, b, c, d, p, q))
    lhs = _chain_sum(((ta, tb, X, tc, td, tp), (ta, tb, X, tc, td, tq)), lambda tx: tx + 1)
    rhs = SqrtRational.of(Fraction(1, p.dim)) if p == q else SqrtRational.zero()
    return lhs, rhs


def pentagon_mismatches(rng, instances: int, tmax: int = 20) -> int:
    """Number of random instances whose exact pentagon sides differ."""
    mismatches = done = 0
    while done < instances:
        spins = random_pentagon_instance(rng, tmax)
        if spins is None:
            continue
        lhs, rhs = pentagon_sides(spins)
        mismatches += lhs != rhs
        done += 1
    return mismatches


def random_valid_9j(rng, tmax: int = 24) -> Symbol9j:
    """A 9j grid with all six triads valid (rejection sampling)."""
    while True:
        ta, tb = rng.randrange(0, tmax + 1), rng.randrange(0, tmax + 1)
        tc = _sample_coupled(rng, _window(ta, tb), (0, 2 * tmax))
        td, te = rng.randrange(0, tmax + 1), rng.randrange(0, tmax + 1)
        tf = _sample_coupled(rng, _window(td, te), (0, 2 * tmax))
        if tc is None or tf is None:
            continue
        tg = _sample_coupled(rng, _window(ta, td), (0, 4 * tmax))
        th_ = _sample_coupled(rng, _window(tb, te), (0, 4 * tmax))
        if tg is None or th_ is None:
            continue
        ti = _sample_coupled(rng, _window(tc, tf), _window(tg, th_))
        if ti is None:
            continue
        sym = Symbol9j.from_twice(ta, tb, tc, td, te, tf, tg, th_, ti)
        if sym.is_valid():
            return sym
