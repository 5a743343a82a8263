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
from .halfint import HalfInt, halfint_sum, triad_allowed
from .sqrtrat import SqrtRational


def _window(x: HalfInt, y: HalfInt):
    return abs(x.twice - y.twice), x.twice + y.twice


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
        a, b, c, d, e, f = (HalfInt.from_twice(rng.randrange(0, tmax + 1)) for _ in range(6))
        # x couples (a,b), (c,d), (e,f): the three windows must share parity
        if not ((a.twice + b.twice) % 2 == (c.twice + d.twice) % 2 == (e.twice + f.twice) % 2):
            continue
        tp = _sample_coupled(rng, _window(a, d), _window(c, b))
        tq = _sample_coupled(rng, _window(c, f), _window(e, d))
        tr = _sample_coupled(rng, _window(e, a), _window(b, f))
        if tp is None or tq is None or tr is None:
            continue
        p, q, r = HalfInt.from_twice(tp), HalfInt.from_twice(tq), HalfInt.from_twice(tr)
        if not triad_allowed(p, q, r):
            continue
        return a, b, c, d, e, f, p, q, r
    return None


def pentagon_sides(spins):
    """Exact (lhs, rhs) of sum_x (-1)^(R+x) d_x {a b x; c d p}{c d x; e f q}
    {e f x; b a r} = {p q r; e a d}{p q r; f b c}.

    The left side goes through the exact chain engine, the right side
    through two standalone 6j, so the identity cross-checks both paths."""
    a, b, c, d, e, f, p, q, r = spins
    t_r = halfint_sum(spins).twice

    def weight(tx):
        if (t_r + tx) % 2:
            raise ValueError("pentagon phase exponent R + x must be an integer")
        return (-1 if ((t_r + tx) // 2) % 2 else 1) * (tx + 1)

    ta, tb, tc, td, te, tf, tp, tq, tr = (v.twice for v in spins)
    lhs = _chain_sum(((ta, tb, X, tc, td, tp), (tc, td, X, te, tf, tq),
                      (te, tf, X, tb, ta, tr)), weight)
    rhs = wigner6j(p, q, r, e, a, d) * wigner6j(p, q, r, f, b, c)
    return lhs, rhs


def random_orthogonality_instance(rng, tmax: int = 16):
    """(a, b, c, d, p, q) with valid couplings for the 6j orthogonality sum."""
    for _ in range(1000):
        a, b, c, d = (HalfInt.from_twice(rng.randrange(0, tmax + 1)) for _ in range(4))
        if (a.twice + b.twice) % 2 != (c.twice + d.twice) % 2:
            continue
        tp = _sample_coupled(rng, _window(a, d), _window(c, b))
        tq = _sample_coupled(rng, _window(a, d), _window(c, b))
        if tp is None or tq is None:
            continue
        return a, b, c, d, HalfInt.from_twice(tp), HalfInt.from_twice(tq)
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
        tc = _sample_coupled(rng, _window(HalfInt.from_twice(ta), HalfInt.from_twice(tb)),
                             (0, 2 * tmax))
        td, te = rng.randrange(0, tmax + 1), rng.randrange(0, tmax + 1)
        tf = _sample_coupled(rng, _window(HalfInt.from_twice(td), HalfInt.from_twice(te)),
                             (0, 2 * tmax))
        if tc is None or tf is None:
            continue
        h = HalfInt.from_twice
        tg = _sample_coupled(rng, _window(h(ta), h(td)), (0, 4 * tmax))
        th_ = _sample_coupled(rng, _window(h(tb), h(te)), (0, 4 * tmax))
        if tg is None or th_ is None:
            continue
        ti = _sample_coupled(rng, _window(h(tc), h(tf)), _window(h(tg), h(th_)))
        if ti is None:
            continue
        sym = Symbol9j.from_twice(ta, tb, tc, td, te, tf, tg, th_, ti)
        if sym.is_valid():
            return sym
