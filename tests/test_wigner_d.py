"""Small-d matrix elements against the symmetrized tensor-power oracle,
plus SU(2) Euler utilities."""

from __future__ import annotations

import math
import random
from itertools import combinations

import numpy as np
import pytest

from wigner_asym.errors import InvalidProjection
from wigner_asym.halfint import HalfInt
from wigner_asym.wigner_d import small_d

from oracles import (
    EulerTriple,
    Unitary2,
    d_symmetry_flip,
    rotation_y,
    rotation_z,
    su2_euler_product,
    su2_extract_euler,
)

H = HalfInt.from_twice


def d_matrix(ts: int, beta: float) -> np.ndarray:
    dim = ts + 1
    out = np.zeros((dim, dim))
    for i, tmu in enumerate(range(ts, -ts - 1, -2)):
        for k, tnu in enumerate(range(ts, -ts - 1, -2)):
            out[i, k] = small_d(H(ts), H(tmu), H(tnu), beta)
    return out


def tensor_power_oracle(ts: int, beta: float) -> np.ndarray:
    """Spin-s d-matrix as the restriction of the (2s)-fold tensor power of
    the spin-1/2 rotation to the symmetric subspace."""
    u = rotation_y(beta).real
    n = ts
    if n == 0:
        return np.array([[1.0]])
    dim_big = 2 ** n
    big = np.array([[1.0]])
    for _ in range(n):
        big = np.kron(big, u)
    # symmetric basis vector with (n_plus) up-spins, normalized
    basis = []
    for n_plus in range(n, -1, -1):
        vec = np.zeros(dim_big)
        for positions in combinations(range(n), n_plus):
            idx = 0
            for bit in range(n):
                idx = 2 * idx + (0 if bit in positions else 1)
            vec[idx] = 1.0
        basis.append(vec / np.linalg.norm(vec))
    basis = np.array(basis)
    return basis @ big @ basis.T


def test_half_spin_matrix_is_defining_rep():
    for beta in (0.0, 0.4, 1.3, 2.8, -0.9):
        got = d_matrix(1, beta)
        expect = rotation_y(beta).real
        assert np.allclose(got, expect, atol=1e-14)


def test_identity_at_zero_angle():
    for ts in (1, 2, 3, 7):
        assert np.allclose(d_matrix(ts, 0.0), np.eye(ts + 1), atol=1e-13)


def test_spin1_element_closed_form():
    for beta in (0.2, 0.9, 2.4):
        assert abs(small_d(1, 1, 0, beta) + math.sin(beta) / math.sqrt(2)) < 1e-14


def test_tensor_power_oracle():
    for ts in (2, 3, 5, 8):
        for beta in (0.37, 1.1, 2.6):
            assert np.allclose(d_matrix(ts, beta), tensor_power_oracle(ts, beta),
                               atol=1e-10), ts


def test_unitarity_rows():
    rng = random.Random(5)
    for ts in range(1, 21):
        beta = rng.uniform(0, math.pi)
        m = d_matrix(ts, beta)
        assert np.allclose(m @ m.T, np.eye(ts + 1), atol=1e-12)


def test_large_spin_stays_conditioned():
    # s = 50: the extreme elements have closed forms and the top row stays
    # normalized (the exact-rational prefactors never overflow)
    beta = 0.8
    assert abs(small_d(50, 50, 50, beta) - math.cos(beta / 2) ** 100) < 1e-15
    assert abs(abs(small_d(50, 50, -50, beta)) - math.sin(beta / 2) ** 100) < 1e-15
    row = [small_d(HalfInt(50), HalfInt(50), H(tnu), beta)
           for tnu in range(-100, 101, 2)]
    assert abs(sum(v * v for v in row) - 1.0) < 1e-12


def test_same_axis_composition():
    rng = random.Random(6)
    for ts in (1, 2, 4, 9):
        a, b = rng.uniform(0, 2), rng.uniform(0, 2)
        assert np.allclose(d_matrix(ts, a) @ d_matrix(ts, b), d_matrix(ts, a + b),
                           atol=1e-12)


def test_projection_validation():
    with pytest.raises(InvalidProjection):
        small_d(1, HalfInt("1/2"), 0, 0.3)
    with pytest.raises(InvalidProjection):
        small_d(1, 2, 0, 0.3)


def test_symmetry_flip():
    cases = [(2, -2, -2), (1, -1, -1), (4, 2, -4), (3, -1, 3)]
    for ts, tmu, tnu in cases:
        for beta in (0.0, 0.7, 2.2, 3.0):
            phase, (s, mu, nu, b) = d_symmetry_flip(H(ts), H(tmu), H(tnu), beta)
            lhs = small_d(H(ts), H(tmu), H(tnu), beta)
            rhs = phase * small_d(s, mu, nu, b)
            assert abs(lhs - rhs) < 1e-12, (ts, tmu, tnu, beta)


def test_su2_product_and_extraction_round_trip():
    rng = random.Random(8)
    for _ in range(300):
        a = rng.uniform(-math.pi, math.pi)
        b = rng.uniform(0.0, math.pi)
        g = rng.uniform(-math.pi, math.pi)
        u = rotation_z(a) @ rotation_y(b) @ rotation_z(g)
        tr = su2_extract_euler(Unitary2(u))
        assert 0.0 <= tr.beta <= math.pi
        assert -math.pi <= tr.alpha < math.pi
        u2 = rotation_z(tr.alpha) @ rotation_y(tr.beta) @ rotation_z(tr.gamma)
        assert min(np.abs(u - u2).max(), np.abs(u + u2).max()) < 1e-12


def test_su2_gimbal_conventions():
    t = su2_extract_euler(Unitary2(np.eye(2)))
    assert t == EulerTriple(0.0, 0.0, 0.0)
    # pure z rotation: all angle goes to alpha
    t = su2_extract_euler(Unitary2(rotation_z(0.8)))
    assert abs(t.alpha - 0.8) < 1e-12 and t.beta == 0.0 and t.gamma == 0.0
    # beta = pi gimbal
    t = su2_extract_euler(Unitary2(rotation_z(0.5) @ rotation_y(math.pi) @ rotation_z(0.2)))
    assert abs(t.beta - math.pi) < 1e-12 and t.gamma == 0.0


def test_su2_omega_zero_collapses_to_single_rotation():
    t = su2_extract_euler(su2_euler_product(0.4, 0.0, 0.9))
    assert abs(t.beta - 1.3) < 1e-12
    assert abs(t.alpha) < 1e-12 and abs(t.gamma) < 1e-12


def test_unitary2_validation():
    with pytest.raises(ValueError):
        su2_extract_euler(Unitary2(np.array([[2.0, 0.0], [0.0, 0.5]])))
