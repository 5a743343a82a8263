"""Euclidean tetrahedron geometry from edge lengths, in plain floats and,
for the face areas, the Cayley-Menger determinant and the cosine sides of
the dihedral angles, exact integers.

The canonical edge labeling follows the 6j layout {a b c; d e f} with faces
(a,b,c), (a,e,f), (d,b,f), (d,e,c).  Equivalently, for vertices P, Q, R, S:
a = PQ, b = QR, c = PR, d = RS, e = PS, f = QS.  Edge lengths from spins
are always l = j + 1/2.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Sequence

from .errors import (
    DegenerateTriangle,
    DegenerateVertex,
    NotClassicallyAllowed,
)
from .halfint import FACES, HalfInt

EDGE_NAMES = ("a", "b", "c", "d", "e", "f")

#: Caustic guard: an allowed tetrahedron with CM <= eps * (mean edge)^6
#: is flagged near-caustic.
DEFAULT_CAUSTIC_EPS = 1e-6

#: Largest edge length a Tetrahedron accepts: up to it, the Cayley-Menger
#: determinant (|288 V^2| <= 24 l^6) and the caustic guard are finite floats.
MAX_EDGE = (sys.float_info.max / 24.0) ** (1.0 / 6.0)

#: Smallest edge length a Tetrahedron accepts: from it up, each length is
#: p / q with q <= 2^152, so a nonzero determinant (at least 2 / q^6) and
#: the terms of the dihedral angles stay normal floats.
MIN_EDGE = 2.0 ** -100

#: Tolerance for arccos arguments that may stick out of [-1, 1] by rounding.
ACOS_CLAMP_TOL = 1e-9

_SINE_TOL = 1e-12

#: Twice spins below this have exact float lengths t / 2 + 1/2.
_EXACT_TWICE = 2 ** 52


def edge_length_from_spin(j) -> float:
    """l = j + 1/2, the length convention the oscillatory asymptotics need."""
    return HalfInt(j).twice / 2.0 + 0.5


def _clamped_acos(x: float, exc_type=DegenerateTriangle, context: str = "angle") -> float:
    # the callers take acos of a cosine in [-1, 1] themselves; a NaN
    # cosine fails this test and raises
    if not abs(x) <= 1.0 + ACOS_CLAMP_TOL:
        raise exc_type(f"{context}: cosine {x!r} out of range")
    return math.acos(min(1.0, max(-1.0, x)))


def triangle_angle(la: float, lb: float, lc: float) -> float:
    """Interior angle between the sides of lengths la and lb in the triangle
    (la, lb, lc); lc is the opposite side."""
    if not (la > 0.0 and lb > 0.0 and lc > 0.0):
        raise DegenerateTriangle(f"edge not positive in ({la}, {lb}, {lc})")
    cos_phi = (la * la + lb * lb - lc * lc) / (2.0 * la * lb)
    if -1.0 <= cos_phi <= 1.0:
        return math.acos(cos_phi)
    return _clamped_acos(cos_phi, DegenerateTriangle, f"triangle ({la}, {lb}, {lc})")


@dataclass(frozen=True)
class Tetrahedron:
    """Six edge lengths in the canonical layout (a, b, c, d, e, f), built
    in one exact pass over their integer squares (from the float lengths
    by :func:`_integer_squares`, or from twice spins by
    :meth:`_from_twice`): each face by
    16 area^2 = 2 (xy + yz + zx) - x^2 - y^2 - z^2 (below 0 raises
    DegenerateTriangle, 0 leaves its edges without an angle), the
    determinant and its status and, when it is not negative, the dihedral
    angles, the volume and (no angle undefined) the Regge action."""

    lengths: tuple
    _cm: float = field(init=False, repr=False, compare=False)
    _status: str = field(init=False, repr=False, compare=False)
    _thetas: tuple | None = field(init=False, repr=False, compare=False)
    _volume: float | None = field(init=False, repr=False, compare=False)
    _action: float | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.lengths) != 6:
            raise ValueError("a tetrahedron has six edges")
        lengths = tuple(float(x) for x in self.lengths)
        if not all(MIN_EDGE <= x <= MAX_EDGE for x in lengths):
            raise ValueError(f"edge lengths must be in [{MIN_EDGE:.3g}, {MAX_EDGE:.3g}]")
        self._build(lengths, *_integer_squares(lengths))

    @classmethod
    def from_spins(cls, spins: Sequence) -> "Tetrahedron":
        """The tetrahedron with edge lengths j + 1/2."""
        return cls._from_twice([HalfInt(j).twice for j in spins])

    @classmethod
    def _from_twice(cls, twice: Sequence[int]) -> "Tetrahedron":
        """:meth:`from_spins` on twice spins t, lengths (t + 1) / 2.

        The integer squares are (t + 1)^2 over den = 2, with no
        ``as_integer_ratio``.  The result is bit-identical to the float
        constructor's.  Where that finds den = 1 (every t odd), these squares
        are 4 times its own: numerator and denominator of the determinant's
        2 v / den^6 both scale by 2^6, those of each cos_side / den^4 by 2^4
        and each face's 16 area^2 by 2^4, so every rational is the same and
        so is its correctly rounded float.  Twice spins that are negative,
        not six, or so large that t / 2 + 1/2 rounds (t >= 2^52) take the
        float constructor, which raises or rounds as it does for those
        lengths.
        """
        lengths = tuple([t / 2.0 + 0.5 for t in twice])
        if len(twice) != 6 or not 0 <= min(twice) <= max(twice) < _EXACT_TWICE:
            return cls(lengths)
        tet = object.__new__(cls)
        tet._build(lengths, 2, [(t + 1) * (t + 1) for t in twice])
        return tet

    def _build(self, lengths: tuple, den: int, sq: list) -> None:
        """Faces, determinant, status, angle table, volume and action from
        the squared lengths sq / den^2, shared by both constructors."""
        A, B, C, D, E, F = sq
        # 16 area^2 = 2 (xy + yz + zx) - x^2 - y^2 - z^2 = 4 xy - (x + y - z)^2
        areas = (4 * A * B - (A + B - C) ** 2, 4 * A * E - (A + E - F) ** 2,
                 4 * D * B - (D + B - F) ** 2, 4 * D * E - (D + E - C) ** 2)
        flat = set()
        for face, area in zip(FACES, areas):
            if area < 0:
                raise DegenerateTriangle(
                    f"face {tuple(EDGE_NAMES[i] for i in face)} violates the triangle inequality"
                )
            if area == 0:
                flat.update(face)
        cm = cayley_menger_determinant(den, sq)
        thetas = vol = action = None
        if cm < 0.0:
            status = "forbidden"
        else:
            status = "near_caustic" if cm <= _caustic_tolerance(lengths) else "allowed"
            thetas = _dihedral_table(lengths, den, sq, cm, flat)
            vol = math.sqrt(cm / 288.0)
            if not flat:
                action = sum([l * (math.pi - theta) for l, theta in zip(lengths, thetas)])
        self.__dict__.update(lengths=lengths, _cm=cm, _status=status, _thetas=thetas,
                             _volume=vol, _action=action)

    def cayley_menger(self) -> float:
        """The Cayley-Menger determinant (= 288 V^2)."""
        return self._cm

    def caustic_tolerance(self) -> float:
        """DEFAULT_CAUSTIC_EPS * (mean edge)^6."""
        return _caustic_tolerance(self.lengths)

    def status(self) -> str:
        """'forbidden' when the Cayley-Menger determinant is negative (no
        Euclidean tetrahedron has these edges), 'near_caustic' when it is
        at most the caustic guard (flat ones included), else 'allowed'."""
        return self._status


def _caustic_tolerance(lengths: tuple) -> float:
    return DEFAULT_CAUSTIC_EPS * (sum(lengths) / 6.0) ** 6


def _integer_squares(lengths: Sequence[float]):
    """(den, squares): each float length is p / q exactly, so with den the
    largest q the squared lengths are squares / den^2 in integers."""
    ratios = [x.as_integer_ratio() for x in lengths]
    den = max(q for _, q in ratios)
    return den, [(p * (den // q)) ** 2 for p, q in ratios]


def cayley_menger_determinant(den: int, squares: Sequence[int]) -> float:
    """288 V^2 of the squared edge lengths squares / den^2 in the order
    (a, b, c, d, e, f), correctly rounded.

    Expands the 5x5 Cayley-Menger determinant in the squared lengths
    A = a^2, ...: 288 V^2 = 2 [sum over the opposite pairs (A, D), (B, E),
    (C, F) of p q (other four - p - q) - sum over the faces of the product
    of their three squares].  The polynomial is evaluated in the integers
    of :func:`_integer_squares` and rounded once: a flat tetrahedron gives
    exactly 0.
    """
    A, B, C, D, E, F = squares
    v = (
        A * D * (B + C + E + F - A - D)
        + B * E * (A + C + D + F - B - E)
        + C * F * (A + B + D + E - C - F)
        - A * B * C - A * E * F - D * B * F - D * E * C
    )
    return 2 * v / den ** 6


def _dihedral_table(lengths: Sequence[float], den: int, sq: Sequence[int],
                    cm: float, flat: set) -> tuple:
    """Internal dihedral angles at (a, ..., f) of a tetrahedron with
    Cayley-Menger determinant ``cm`` >= 0, from the integer squared lengths
    ``sq`` / den^2 its determinant was computed from; None at the edges in
    ``flat``, those of a face with zero area.

    At an edge XY of length l = sqrt(L), Z and W the other two vertices and
    S1, S2 the areas of its faces, 16 S1 S2 sin(theta) = l sqrt(2 cm) and
    16 S1 S2 cos(theta) = L (total - 2 L - 3 ZW) - (XZ - YZ)(XW - YW) in the
    squared lengths, total = L + ZW + XZ + XW + YZ + YW.
    The cosine side is an exact integer over den^4, so atan2 needs no
    clamp near 0 or pi.
    """
    A, B, C, D, E, F = sq
    total = A + B + C + D + E + F
    la, lb, lc, ld, le, lf = lengths
    root = math.sqrt(2.0 * cm)
    den4 = den ** 4
    atan2 = math.atan2
    thetas = (
        atan2(la * root, (A * (total - 2 * A - 3 * D) - (C - B) * (E - F)) / den4),
        atan2(lb * root, (B * (total - 2 * B - 3 * E) - (A - C) * (F - D)) / den4),
        atan2(lc * root, (C * (total - 2 * C - 3 * F) - (A - B) * (E - D)) / den4),
        atan2(ld * root, (D * (total - 2 * D - 3 * A) - (C - E) * (B - F)) / den4),
        atan2(le * root, (E * (total - 2 * E - 3 * B) - (A - F) * (C - D)) / den4),
        atan2(lf * root, (F * (total - 2 * F - 3 * C) - (A - E) * (B - D)) / den4),
    )
    if flat:
        return tuple(None if edge in flat else theta for edge, theta in enumerate(thetas))
    return thetas


def _allowed_determinant(t: Tetrahedron, context: str) -> None:
    """NotClassicallyAllowed when the Cayley-Menger determinant of ``t`` is
    negative."""
    if t._cm < 0.0:
        raise NotClassicallyAllowed(f"{context}: Cayley-Menger determinant {t._cm:.6g} < 0", t._cm)


def volume(t: Tetrahedron) -> float:
    """Euclidean volume; 0 when flat; NotClassicallyAllowed when forbidden."""
    _allowed_determinant(t, "not classically allowed")
    return t._volume


def dihedral_internal(t: Tetrahedron, edge: str) -> float:
    """Internal dihedral angle at an edge, in [0, pi]:
    atan2(l sqrt(2 CM), N_e) with N_e an exact integer polynomial in the
    squared lengths (see :func:`_dihedral_table`), read from the
    tetrahedron's table.  0 or pi on a flat tetrahedron;
    NotClassicallyAllowed when forbidden; DegenerateVertex when a face at
    the edge has zero area."""
    _allowed_determinant(t, "dihedral angles undefined")
    theta = t._thetas[EDGE_NAMES.index(edge)]
    if theta is None:
        raise DegenerateVertex(f"a face at edge {edge} has zero area")
    return theta


def dihedral_external(t: Tetrahedron, edge: str) -> float:
    return math.pi - dihedral_internal(t, edge)


def regge_action(t: Tetrahedron) -> float:
    """sum_e l_e * external dihedral, over the six edges (l = j + 1/2)."""
    _allowed_determinant(t, "Regge action undefined")
    if t._action is None:
        dihedral_internal(t, EDGE_NAMES[t._thetas.index(None)])
    return t._action


# ----------------------------------------------------------------------
# Glued-triangle constructions
# ----------------------------------------------------------------------

def euler_from_glued_triangles(phi1: float, theta: float, phin: float):
    """Solve the vertex figure of two triangles glued along a shared edge.

    ``phi1`` and ``phin`` are the apex angles the two triangles make with
    the shared edge, ``theta`` the internal dihedral between their planes.
    Returns (theta_a, phi_mid, theta_b): the dihedral angles at the two
    apex edges and the angle between them, all in [0, pi] (spherical law
    of cosines and its duals), by :func:`_glued_vertex`.
    """
    pi = math.pi
    if not (0.0 <= phi1 <= pi and 0.0 <= theta <= pi and 0.0 <= phin <= pi):
        for name, val in (("phi1", phi1), ("theta", theta), ("phin", phin)):
            if not -ACOS_CLAMP_TOL <= val <= pi + ACOS_CLAMP_TOL:
                raise ValueError(f"{name} = {val!r} out of [0, pi]")
    return _glued_vertex(math.cos(phi1), math.sin(phi1), math.cos(phin), math.sin(phin), theta)


def _glued_vertex(c1: float, s1: float, cn: float, sn: float, theta: float):
    """:func:`euler_from_glued_triangles` from the cosines and sines of the
    apex angles and the dihedral ``theta``, so that a caller gluing the
    same two triangles at several dihedrals takes their trigonometry once.
    """
    if s1 < _SINE_TOL or sn < _SINE_TOL:
        raise DegenerateVertex("apex angle sine underflow (input 0 or pi)")
    acos = math.acos
    cos_mid = c1 * cn + s1 * sn * math.cos(theta)
    phi_mid = (acos(cos_mid) if -1.0 <= cos_mid <= 1.0
               else _clamped_acos(cos_mid, DegenerateVertex, "glued mid-angle"))
    s_mid = math.sin(phi_mid)
    if s_mid < _SINE_TOL:
        raise DegenerateVertex("mid-angle sine underflow, dihedrals undefined")
    cos_a = (cn - c1 * cos_mid) / (s1 * s_mid)
    cos_b = (c1 - cn * cos_mid) / (sn * s_mid)
    theta_a = (acos(cos_a) if -1.0 <= cos_a <= 1.0
               else _clamped_acos(cos_a, DegenerateVertex, "glued dihedral A"))
    theta_b = (acos(cos_b) if -1.0 <= cos_b <= 1.0
               else _clamped_acos(cos_b, DegenerateVertex, "glued dihedral B"))
    return theta_a, phi_mid, theta_b


def law_of_cosines(la: float, lb: float, angle: float) -> float:
    """Third side of the triangle with sides la, lb enclosing ``angle``,
    sqrt(la^2 + lb^2 - 2 la lb cos(angle)), written as
    sqrt((la - lb)^2 + 4 la lb sin^2(angle/2)) so it never goes negative.
    With the mid-angle of :func:`euler_from_glued_triangles` and the two
    apex edges it is the sixth edge of the glued tetrahedron."""
    return math.sqrt((la - lb) ** 2 + 4.0 * la * lb * math.sin(angle / 2.0) ** 2)


# ----------------------------------------------------------------------
# Sign configurations
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SignConfig:
    """One +-1 assignment in the expansion of a product of oscillatory
    factors, with its accumulated z-rotation angle and case data."""

    sigma: tuple
    omega: float           # normalized to [-2pi, 2pi)
    case_id: str           # "I".."IV"
    theta_k1: float        # gluing dihedral for this configuration, in [0, pi]
    boundary: bool         # omega within tolerance of a case boundary


_TWO_PI = 2.0 * math.pi
_FOUR_PI = 4.0 * math.pi


def omega_classify(n: int, m_small: int, theta_k1_list: Sequence[float], sigma: Sequence[int]) -> SignConfig:
    """Classify omega = (n+M) pi - sum_p sigma_p Theta_p (mod 4 pi).

    ``theta_k1_list`` holds the external dihedrals at the shared edge of the
    oscillatory tetrahedra.  The returned gluing angle theta_k1 always lies
    in [0, pi]; the wrapped branches (II and IV) carry the extra phase
    (-1)^(2 j1), which :func:`f_phase` adds as +2 pi j1.
    """
    sigma = tuple(int(s) for s in sigma)
    if len(sigma) != len(theta_k1_list):
        raise ValueError("sigma and dihedral list lengths differ")
    if any(s not in (-1, 1) for s in sigma):
        raise ValueError("sigma entries must be +-1")
    raw = (n + m_small) * math.pi - sum(s * th for s, th in zip(sigma, theta_k1_list))
    return SignConfig(sigma, *_classify_omega(raw))


def _classify_omega(raw: float) -> tuple:
    """(omega, case_id, theta_k1, boundary) of :class:`SignConfig` for the
    unreduced omega ``raw``, without checking the sign configuration."""
    omega = raw - _FOUR_PI * math.floor((raw + _TWO_PI) / _FOUR_PI)
    if 0.0 <= omega < math.pi:
        case_id, theta = "I", math.pi - omega
    elif -_TWO_PI <= omega < -math.pi:
        case_id, theta = "II", -math.pi - omega
    elif -math.pi <= omega < 0.0:
        case_id, theta = "III", math.pi + omega
    else:
        case_id, theta = "IV", omega - math.pi
    if not 0.0 < theta <= math.pi:
        theta = min(math.pi, max(0.0, theta))
    boundary = min(abs(omega + _TWO_PI), abs(omega + math.pi), abs(omega),
                   abs(omega - math.pi), abs(omega - _TWO_PI)) < 1e-12
    return omega, case_id, theta, boundary


def f_phase(cfg: SignConfig, mu, nu, theta_l1: float, theta_ln: float, j1) -> float:
    """Residual phase of a sign configuration.

    -+ (mu theta_l1 + nu theta_ln), with +2 pi j1 added on the wrapped
    branches (omega in [-2pi, -pi) and [pi, 2pi)).
    """
    mu, nu, j1 = HalfInt(mu), HalfInt(nu), HalfInt(j1)
    return _residual_phase(cfg.case_id, float(mu) * theta_l1 + float(nu) * theta_ln, float(j1))


def _residual_phase(case_id: str, base: float, j1: float) -> float:
    """:func:`f_phase` from the case, base = mu theta_l1 + nu theta_ln and
    j1, all plain values."""
    if case_id == "I":
        return -base
    if case_id == "II":
        return -base + _TWO_PI * j1
    if case_id == "III":
        return base
    return base + _TWO_PI * j1
