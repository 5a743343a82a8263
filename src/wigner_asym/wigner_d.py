"""Wigner small-d matrix elements and 2x2 SU(2) utilities.

Convention: d^(s)_{mu nu}(beta) = <s,mu| exp(-i beta sigma_y / 2) |s,nu>
with sigma_y = [[0, -i], [i, 0]], so d^(1/2)(beta) =
[[cos b/2, -sin b/2], [sin b/2, cos b/2]].  The sum formula uses
exact-rational binomial prefactors (via the factorial ledger) and floating
trigonometric powers, which stays well-conditioned up to s ~ 50.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidProjection
from .halfint import HalfInt
from .primefac import DEFAULT_LEDGER
from .sqrtrat import SqrtRational


def _check_projections(s: HalfInt, mu: HalfInt, nu: HalfInt) -> None:
    for m in (mu, nu):
        if abs(m.twice) > s.twice or (s.twice - m.twice) % 2 != 0:
            raise InvalidProjection(f"projection {m} invalid for spin {s}")


_COEFF_CACHE: dict = {}


def _d_coefficients(ts: int, tmu: int, tnu: int):
    """[(cos_power, sin_power, coefficient)] for the small-d sum formula."""
    key = (ts, tmu, tnu)
    cached = _COEFF_CACHE.get(key)
    if cached is not None:
        return cached
    s_plus_nu = (ts + tnu) // 2
    s_minus_mu = (ts - tmu) // 2
    mu_minus_nu = (tmu - tnu) // 2
    numerator = [
        ((ts + tmu) // 2, 1), ((ts - tmu) // 2, 1),
        ((ts + tnu) // 2, 1), ((ts - tnu) // 2, 1),
    ]
    out = []
    for k in range(max(0, -mu_minus_nu), min(s_plus_nu, s_minus_mu) + 1):
        quotient = numerator + [
            (s_plus_nu - k, -2), (k, -2),
            (mu_minus_nu + k, -2), (s_minus_mu - k, -2),
        ]
        rat, rad = DEFAULT_LEDGER.sqrt_factorial_quotient(quotient)
        sign = -1 if (mu_minus_nu + k) % 2 else 1
        coeff = float(SqrtRational.from_canonical(sign, rat, rad))
        cos_pow = ts - mu_minus_nu - 2 * k
        sin_pow = mu_minus_nu + 2 * k
        out.append((cos_pow, sin_pow, coeff))
    _COEFF_CACHE[key] = out
    return out


def small_d(s, mu, nu, beta: float) -> float:
    """d^(s)_{mu nu}(beta), real, for any real angle beta."""
    s, mu, nu = HalfInt(s), HalfInt(mu), HalfInt(nu)
    _check_projections(s, mu, nu)
    c = math.cos(beta / 2.0)
    z = math.sin(beta / 2.0)
    total = 0.0
    for cos_pow, sin_pow, coeff in _d_coefficients(s.twice, mu.twice, nu.twice):
        total += coeff * c ** cos_pow * z ** sin_pow
    return total


def d_symmetry_flip(s, mu, nu, beta: float):
    """The reflection used to flip both projections of a small-d element.

    Returns (phase, (s, mu', nu', beta')) with
    phase * d(s, mu', nu', beta') == d(s, mu, nu, beta),
    namely d_{mu nu}(b) = (-1)^(s+mu) d_{mu, -nu}(pi - b).
    """
    s, mu, nu = HalfInt(s), HalfInt(mu), HalfInt(nu)
    _check_projections(s, mu, nu)
    phase = -1 if ((s.twice + mu.twice) // 2) % 2 else 1
    return phase, (s, mu, -nu, math.pi - beta)


# ----------------------------------------------------------------------
# SU(2) 2x2 utilities
# ----------------------------------------------------------------------

@dataclass
class Unitary2:
    """2x2 complex matrix expected to be in SU(2)."""

    m: np.ndarray

    def __post_init__(self):
        self.m = np.asarray(self.m, dtype=complex)
        if self.m.shape != (2, 2):
            raise ValueError("Unitary2 needs a 2x2 matrix")

    def unitarity_defect(self) -> float:
        dev = self.m @ self.m.conj().T - np.eye(2)
        return float(max(np.abs(dev).max(), abs(np.linalg.det(self.m) - 1.0)))

    def validate(self, tol: float = 1e-12):
        defect = self.unitarity_defect()
        if defect > tol:
            raise ValueError(f"matrix is not special-unitary (defect {defect:.2e})")


@dataclass(frozen=True)
class EulerTriple:
    alpha: float
    beta: float
    gamma: float


def rotation_y(angle: float) -> np.ndarray:
    """exp(-i angle sigma_y / 2)."""
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rotation_z(angle: float) -> np.ndarray:
    """exp(-i angle sigma_z / 2)."""
    half = cmath.exp(-1j * angle / 2.0)
    return np.array([[half, 0.0], [0.0, half.conjugate()]], dtype=complex)


def su2_euler_product(phi1: float, omega: float, phin: float) -> Unitary2:
    """Ry(phi1) Rz(omega) Ry(phin) in the spin-1/2 representation."""
    return Unitary2(rotation_y(phi1) @ rotation_z(omega) @ rotation_y(phin))


_GIMBAL_TOL = 1e-12


def su2_extract_euler(u: Unitary2) -> EulerTriple:
    """z-y-z Euler angles of an SU(2) element: u = Rz(alpha) Ry(beta) Rz(gamma).

    beta lies in [0, pi]; the (alpha, gamma) -> (alpha +- 2pi, gamma -+ 2pi)
    ambiguity is resolved to alpha in [-pi, pi).  At the gimbal condition
    |u00| in {0, 1} only alpha+gamma (beta = 0) or alpha-gamma (beta = pi)
    is defined; the defined combination is returned as alpha, gamma = 0.
    """
    u.validate()
    u00, u10 = complex(u.m[0, 0]), complex(u.m[1, 0])
    a00, a10 = abs(u00), abs(u10)
    beta = 2.0 * math.atan2(a10, a00)
    if a10 <= _GIMBAL_TOL:
        return EulerTriple(_wrap_pi(-2.0 * cmath.phase(u00)), 0.0, 0.0)
    if a00 <= _GIMBAL_TOL:
        return EulerTriple(_wrap_pi(2.0 * cmath.phase(u10)), math.pi, 0.0)
    arg00 = cmath.phase(u00)
    arg10 = cmath.phase(u10)
    alpha = arg10 - arg00
    gamma = -arg00 - arg10
    if alpha < -math.pi:
        alpha += 2.0 * math.pi
        gamma -= 2.0 * math.pi
    elif alpha >= math.pi:
        alpha -= 2.0 * math.pi
        gamma += 2.0 * math.pi
    return EulerTriple(alpha, beta, gamma)


def _wrap_pi(angle: float) -> float:
    """Map to [-pi, pi)."""
    out = math.fmod(angle + math.pi, 2.0 * math.pi)
    if out < 0:
        out += 2.0 * math.pi
    return out - math.pi
