"""Test-only oracles: numpy SU(2) algebra and vertex embeddings.

They check the package from outside it (Euler angles of the glued
triangles, dihedrals and volumes from coordinates) and are not part of its
runtime.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from wigner_asym.errors import DegenerateTriangle, DegenerateVertex, NotClassicallyAllowed
from wigner_asym.geometry import _SINE_TOL, ACOS_CLAMP_TOL, Tetrahedron


def embed_vertices(t: Tetrahedron) -> np.ndarray:
    """Coordinates (4 x 3) of P, Q, R, S realizing the edge lengths."""
    a, b, c, d, e, f = t.lengths
    p = np.zeros(3)
    q = np.array([a, 0.0, 0.0])
    xr = (a * a + c * c - b * b) / (2.0 * a)
    yr_sq = c * c - xr * xr
    if yr_sq < -ACOS_CLAMP_TOL * c * c:
        raise DegenerateTriangle("face (a, b, c) is not realizable")
    yr = math.sqrt(max(yr_sq, 0.0))
    r = np.array([xr, yr, 0.0])
    xs = (a * a + e * e - f * f) / (2.0 * a)
    if yr < _SINE_TOL:
        raise DegenerateVertex("base face degenerate, embedding undefined")
    ys = (e * e - d * d - 2.0 * xs * xr + xr * xr + yr * yr) / (2.0 * yr)
    zs_sq = e * e - xs * xs - ys * ys
    scale = max(t.lengths) ** 2
    if zs_sq < -1e-9 * scale:
        raise NotClassicallyAllowed(
            f"no Euclidean embedding: apex height^2 = {zs_sq:.6g} < 0", zs_sq
        )
    s = np.array([xs, ys, math.sqrt(max(zs_sq, 0.0))])
    return np.vstack([p, q, r, s])


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
