"""Shared samplers and helpers for the test suite.

All randomness is seeded per test; samplers reject invalid configurations
so every returned object satisfies the exact engine's validity conditions.
"""

from __future__ import annotations

import random

import mpmath
import numpy as np
import pytest

from wigner_asym.exact import Symbol3nj
from wigner_asym.geometry import Tetrahedron
from wigner_asym.halfint import HalfInt


def to_mpf(value) -> mpmath.mpf:
    """An exact SqrtRational at the current mpmath working precision."""
    if value.sign == 0:
        return mpmath.mpf(0)
    v = mpmath.mpf(value.rat.numerator) / value.rat.denominator
    if value.rad != 1:
        v *= mpmath.sqrt(mpmath.mpf(value.rad))
    return value.sign * v


def random_realizable_tet(rng: np.random.RandomState, margin: float = 0.05,
                          max_ratio: float = 10.0) -> Tetrahedron:
    """A tetrahedron from four random points, rejected until its
    Cayley-Menger determinant clears margin * (mean edge)^6 and the edge
    ratio stays below max_ratio."""
    while True:
        pts = rng.uniform(-1.0, 1.0, (4, 3))
        d = lambda i, j: float(np.linalg.norm(pts[i] - pts[j]))
        lengths = (d(0, 1), d(1, 2), d(0, 2), d(2, 3), d(0, 3), d(1, 3))
        if max(lengths) / min(lengths) > max_ratio:
            continue
        try:
            tet = Tetrahedron(lengths)
        except Exception:
            continue
        if tet.cayley_menger() > margin * (sum(lengths) / 6.0) ** 6:
            return tet


def embedded_tet(rng: np.random.RandomState, margin: float = 0.05):
    """(tetrahedron, vertex coordinates) pair for embedding oracles."""
    while True:
        pts = rng.uniform(-1.0, 1.0, (4, 3))
        d = lambda i, j: float(np.linalg.norm(pts[i] - pts[j]))
        lengths = (d(0, 1), d(1, 2), d(0, 2), d(2, 3), d(0, 3), d(1, 3))
        if max(lengths) / min(lengths) > 10.0:
            continue
        try:
            tet = Tetrahedron(lengths)
        except Exception:
            continue
        if tet.cayley_menger() > margin * (sum(lengths) / 6.0) ** 6:
            return tet, pts


def sample_chain_15j(rng: random.Random, base: int = 40, t_small: int = 2,
                     nsmall_l: int = 0) -> Symbol3nj:
    """A valid near-regular 15j with j1 small and small l entries at
    indices 2..1+nsmall_l.  The k row is integer; the other j entries share
    the parity of j1 so every intermediate-spin window is consistent."""
    for _ in range(50_000):
        tj1 = t_small
        tk = [2 * (base + rng.randint(-3, 3)) for _ in range(5)]
        tj = [tj1] + [2 * (base + rng.randint(-3, 3)) + (tj1 % 2) for _ in range(4)]
        tl = [0] * 5
        tl[0] = tj[1] + rng.randrange(-tj1, tj1 + 1, 2)
        tl[4] = tk[4] + rng.randrange(-tj1, tj1 + 1, 2)
        for m in (2, 3, 4):
            if m - 2 < nsmall_l:
                tlm = rng.choice([2, 4])
                tl[m - 1] = tlm
                tj[m] = tj[m - 1] + rng.randrange(-tlm, tlm + 1, 2)
                tk[m] = tk[m - 1] + rng.randrange(-tlm, tlm + 1, 2)
            else:
                tl[m - 1] = 2 * (base + rng.randint(-3, 3))
        try:
            sym = Symbol3nj(
                tuple(HalfInt.from_twice(t) for t in tj),
                tuple(HalfInt.from_twice(t) for t in tk),
                tuple(HalfInt.from_twice(t) for t in tl),
            )
        except ValueError:
            continue
        if sym.is_valid():
            return sym
    raise RuntimeError("chain sampler exhausted its attempts")


@pytest.fixture
def np_rng():
    return np.random.RandomState(20240817)


@pytest.fixture
def rng():
    return random.Random(20240817)
