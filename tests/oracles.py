"""Test-only oracles: numpy SU(2) algebra, vertex embeddings, the Schlafli
residual, 60-digit dihedral angles and Regge action by the face-angle
route, the small-d reflection, the xi-sum form of the 3nj asymptotics,
the closed 9j and 15j-1 forms, the Horner-rule 3j and 6j series, n! and factorial quotients from the
factorial ledger and a random valid 3nj chain.

They check the package from outside it (Euler angles of the glued
triangles, dihedrals and volumes from coordinates, the resummed chain
formula against its unresummed form, binary splitting against Horner's
rule) and are not part of its runtime.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from wigner_asym.asymptotics import (
    QUARTER_PI,
    AsymDiagnostics,
    SmallSpinMarking,
    _chain_prep,
    _chain_sign,
    _end_triangles,
    _oscillatory_tet,
    _small_l_factor,
)
from wigner_asym.errors import (
    CaseAngleOutOfRange,
    DegenerateTriangle,
    DegenerateVertex,
    NotClassicallyAllowed,
)
from wigner_asym.exact import Symbol3nj, Symbol9j
from wigner_asym.geometry import (
    _SINE_TOL,
    ACOS_CLAMP_TOL,
    EDGE_NAMES,
    Tetrahedron,
    dihedral_external,
    edge_length_from_spin,
    euler_from_glued_triangles,
    regge_action,
    triangle_angle,
    volume,
)
from wigner_asym.halfint import HalfInt, _twice_phase, halfint_sum
from wigner_asym.identities import _sample_coupled, _window
from wigner_asym.primefac import FactorialLedger as _Ledger, _product, _unpack
from wigner_asym.wigner_d import _check_projections, small_d


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


# ----------------------------------------------------------------------
# Independent routes through the package's formulas
# ----------------------------------------------------------------------

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


def schlafli_residual(t: Tetrahedron, h_rel: float = 1e-5) -> float:
    """Numerical defect of the Schlafli identity sum_e l_e dTheta_e = 0.

    For each edge e0, perturb its length by +-h (h = h_rel * l_e0), and
    evaluate |sum_e l_e (Theta_e(+h) - Theta_e(-h)) / (2h)|; returns the
    maximum over the six choices of e0.
    """
    worst = 0.0
    base = list(t.lengths)
    for i0 in range(6):
        h = h_rel * base[i0]
        plus = list(base)
        minus = list(base)
        plus[i0] += h
        minus[i0] -= h
        t_plus = Tetrahedron(tuple(plus))
        t_minus = Tetrahedron(tuple(minus))
        acc = 0.0
        for i, name in enumerate(EDGE_NAMES):
            d_theta = dihedral_external(t_plus, name) - dihedral_external(t_minus, name)
            acc += base[i] * d_theta / (2.0 * h)
        worst = max(worst, abs(acc))
    return worst


# For each edge e, (x, tx, y, ty, txy): its companions x and y at a shared
# node, and the third edges of the faces (e, x), (e, y) and (x, y).
_FACE_ANGLE_ROUTE = {
    "a": ("b", "c", "f", "e", "d"),
    "b": ("a", "c", "f", "d", "e"),
    "c": ("a", "b", "e", "d", "f"),
    "d": ("b", "f", "c", "e", "a"),
    "e": ("d", "c", "f", "a", "b"),
    "f": ("d", "b", "e", "a", "c"),
}


def dihedral_mp(t: Tetrahedron, edge: str, dps: int = 60):
    """Internal dihedral at ``edge`` as an mpf at ``dps`` digits, by the
    face-angle route: the three face angles at a node of the edge by acos,
    then the spherical law of cosines and a fourth acos.

    As in the package, NotClassicallyAllowed first when the Cayley-Menger
    determinant is negative, then DegenerateVertex when a face angle at the
    edge has sine below ``_SINE_TOL``."""
    if t.cayley_menger() < 0.0:
        raise NotClassicallyAllowed("dihedral angles undefined", t.cayley_menger())
    x, tx, y, ty, txy = _FACE_ANGLE_ROUTE[edge]
    with mpmath.workdps(dps):
        length = {name: mpmath.mpf(l) for name, l in zip(EDGE_NAMES, t.lengths)}

        def face_angle(p, q, opposite):
            lp, lq, lo = length[p], length[q], length[opposite]
            return mpmath.acos((lp * lp + lq * lq - lo * lo) / (2 * lp * lq))

        phi_ex, phi_ey = face_angle(edge, x, tx), face_angle(edge, y, ty)
        phi_xy = face_angle(x, y, txy)
        sin_ex, sin_ey = mpmath.sin(phi_ex), mpmath.sin(phi_ey)
        if sin_ex < _SINE_TOL or sin_ey < _SINE_TOL:
            raise DegenerateVertex(f"face angle sine underflow at edge {edge}")
        cos_theta = (mpmath.cos(phi_xy) - mpmath.cos(phi_ex) * mpmath.cos(phi_ey)) / (sin_ex * sin_ey)
        return mpmath.acos(max(-1, min(1, cos_theta)))


def regge_action_mp(t: Tetrahedron, dps: int = 60):
    """sum_e l_e (pi - theta_e) as an mpf at ``dps`` digits, every angle by
    :func:`dihedral_mp`."""
    with mpmath.workdps(dps):
        return mpmath.fsum(
            mpmath.mpf(l) * (mpmath.pi - dihedral_mp(t, name, dps))
            for l, name in zip(t.lengths, EDGE_NAMES)
        )


def asym_3nj_xi_sum(sym: Symbol3nj, mark: SmallSpinMarking) -> float:
    """The 3nj asymptotics of ``asym_3nj`` before the sign-configuration
    resummation: a direct sum over the residual intermediate-spin offset.
    Agrees with ``asym_3nj`` to machine precision; kept as an independent
    route through the angle bookkeeping."""
    diag = AsymDiagnostics()
    chain = _chain_prep(sym, mark, diag, check_hypotheses=True)
    if chain is None:
        return 0.0
    j1, mu, nu = (HalfInt.from_twice(t) for t in (chain.j[0], chain.mu, chain.nu))
    l = chain.l
    n = len(l)
    m_count = len(chain.small_l)
    phi1, phin = (triangle_angle(*tri) for tri in _end_triangles(chain, l[0], l[-1]))
    small_factor = _small_l_factor(chain, diag)

    total = 0.0
    for t_xi in range(-j1.twice, j1.twice + 1, 2):
        xi = HalfInt.from_twice(t_xi)
        wrap = (n + m_count) * ((j1.twice - t_xi) // 2)
        sign = -1.0 if wrap % 2 else 1.0
        prod = 1.0
        for p, theta in chain.thetas.items():
            prod *= math.cos(chain.actions[p] + float(xi) * (math.pi - theta) + QUARTER_PI)
            prod /= math.sqrt(12.0 * math.pi * chain.volumes[p])
        total += sign * small_d(j1, mu, xi, phi1) * small_d(j1, xi, nu, phin) * prod

    amplitude = small_factor / math.sqrt((l[0] + 1) * (l[n - 1] + 1))
    return _chain_sign(chain) * (amplitude * total)


def asym_9j_closed(sym: Symbol9j) -> float:
    """The 9j one-small asymptotics in closed form, for a valid symbol.

    The reference tetrahedron is the 6j {j1 j2 j12; j34 j5 j24}; its faces
    (1, 5, 24) and (2, 34, 24), glued along 24 with the external dihedral
    there as the internal angle, give the residual rotation angles.  The
    end triangles and the amplitude use j1 and j34, ``asym_9j_one_small``'s
    end spins."""
    mu = sym.j13 - sym.j1
    nu = sym.j34 - sym.j4
    tet = _oscillatory_tet(
        [x.twice for x in (sym.j1, sym.j2, sym.j12, sym.j34, sym.j5, sym.j24)],
        None, AsymDiagnostics(),
    )
    vol, action = volume(tet), regge_action(tet)
    l1, l2, l34, l5, l24 = (edge_length_from_spin(x)
                            for x in (sym.j1, sym.j2, sym.j34, sym.j5, sym.j24))
    theta_1, phi_1_34, theta_34 = euler_from_glued_triangles(
        triangle_angle(l1, l24, l5), dihedral_external(tet, "f"), triangle_angle(l34, l24, l2))
    phase = _twice_phase(halfint_sum([sym.j13, sym.j2, sym.j34, sym.j5, sym.s]).twice,
                         "9j phase")
    argument = action + QUARTER_PI - float(mu) * (math.pi - theta_1) - float(nu) * theta_34
    return (
        phase
        * math.cos(argument)
        * small_d(sym.s, mu, nu, math.pi - phi_1_34)
        / math.sqrt(sym.j1.dim * sym.j34.dim * 12.0 * math.pi * vol)
    )


def asym_15j_one_small_closed(sym: Symbol3nj) -> float:
    """The 15j with only j1 small in closed form: three oscillatory
    tetrahedra (p = 2, 3, 4) and four distinct sign configurations, with
    gluing angles combined from the three internal dihedrals at k1;
    CaseAngleOutOfRange when one leaves [0, pi]."""
    chain = _chain_prep(sym, SmallSpinMarking(("j", 1)), AsymDiagnostics())
    if chain is None:
        return 0.0
    mu, nu = HalfInt.from_twice(chain.mu), HalfInt.from_twice(chain.nu)
    j, k, l = sym.j, sym.k, sym.l
    vols, actions = chain.volumes, chain.actions
    t2, t3, t4 = chain.thetas[2], chain.thetas[3], chain.thetas[4]
    combos = {
        "ppp": t2 + t3 + t4 - math.pi,
        "ppm": math.pi - t2 - t3 + t4,
        "pmp": math.pi - t2 + t3 - t4,
        "mpp": math.pi + t2 - t3 - t4,
    }
    for name, theta in combos.items():
        if theta < -1e-12 or theta > math.pi + 1e-12:
            raise CaseAngleOutOfRange(f"combined angle {name} = {theta:.4f} outside [0, pi]")
        combos[name] = min(math.pi, max(0.0, theta))

    phi_a = triangle_angle(*map(edge_length_from_spin, (k[0], j[1], k[1])))
    phi_b = triangle_angle(*map(edge_length_from_spin, (k[0], k[4], j[4])))
    euler = {name: euler_from_glued_triangles(phi_a, theta, phi_b)
             for name, theta in combos.items()}
    s2, s3, s4 = actions[2], actions[3], actions[4]
    pj1 = math.pi * float(j[0])
    terms = []
    for name, signs in (("ppm", (1, 1, -1)), ("pmp", (1, -1, 1)), ("mpp", (-1, 1, 1))):
        theta_j2, mid, theta_k5 = euler[name]
        arg = (
            signs[0] * s2 + signs[1] * s3 + signs[2] * s4 + QUARTER_PI
            - float(mu) * theta_j2 - float(nu) * theta_k5 + pj1
        )
        terms.append(small_d(j[0], mu, nu, mid) * math.cos(arg))
    theta_j2, mid, theta_k5 = euler["ppp"]
    arg = (
        s2 + s3 + s4 + 3.0 * QUARTER_PI
        + float(mu) * theta_j2 + float(nu) * theta_k5 + pj1
    )
    terms.append(small_d(j[0], mu, nu, mid) * math.cos(arg))

    phase = _twice_phase(
        halfint_sum([j[1], l[1], j[2], k[2], l[2], k[3], j[3], l[3], k[4], -k[0], mu]).twice,
        "one-small phase",
    )
    return (
        phase
        / (48.0 * math.pi * math.sqrt(12.0 * math.pi * j[1].dim * k[4].dim
                                      * vols[2] * vols[3] * vols[4]))
        * sum(terms)
    )


# ----------------------------------------------------------------------
# Exact sums by the plain route
# ----------------------------------------------------------------------

def threej_series_horner(a, b, c, d, e):
    """``exact._threej_series`` by Horner's rule on the whole window."""
    kmin = max(0, -d, -e)
    kmax = min(a, b, c)
    head = [(kmin, -1), (a - kmin, -1), (b - kmin, -1),
            (c - kmin, -1), (d + kmin, -1), (e + kmin, -1)]
    num = den = 1
    for k in range(kmax - 1, kmin - 1, -1):
        step = (k + 1) * (d + k + 1) * (e + k + 1) * den
        num, den = step - (a - k) * (b - k) * (c - k) * num, step
    return head, -num if kmin % 2 else num, den


def nest_direct(ts, ns, ds):
    """``exact._nest`` term by term, as a Fraction: the sum of the terms
    t_i prod_{j<i} n_j / d_j."""
    total, ratio = Fraction(ts[0]), Fraction(1)
    for t, n, d in zip(ts[1:], ns, ds):
        ratio *= Fraction(n, d)
        total += t * ratio
    return total


def racah_series_horner(ta, tb, tc, td, te, tf):
    """``exact._racah_series`` by Horner's rule on the whole window."""
    t1, t2, t3, t4 = tsum = ((ta + tb + tc) // 2, (ta + te + tf) // 2,
                             (td + tb + tf) // 2, (td + te + tc) // 2)
    p1, p2, p3 = psum = ((ta + tb + td + te) // 2, (tb + tc + te + tf) // 2,
                         (ta + tc + td + tf) // 2)
    zmin = max(tsum)
    zmax = min(psum)
    head = ([(zmin + 1, 1)] + [(zmin - t, -1) for t in tsum]
            + [(p - zmin, -1) for p in psum])
    num = den = 1
    for z in range(zmax - 1, zmin - 1, -1):
        step = (z + 1 - t1) * (z + 1 - t2) * (z + 1 - t3) * (z + 1 - t4) * den
        num, den = step - (z + 2) * (p1 - z) * (p2 - z) * (p3 - z) * num, step
    return head, -num if zmin % 2 else num, den


# ----------------------------------------------------------------------
# Random symbols
# ----------------------------------------------------------------------

def random_valid_chain(rng, n: int, tmax: int = 20) -> Symbol3nj:
    """A valid first-kind 3nj symbol built triad by triad."""
    h = HalfInt.from_twice
    while True:
        tj = [rng.randrange(0, tmax + 1)]
        tl = []
        ok = True
        for _ in range(n - 1):
            tli = rng.randrange(0, tmax + 1)
            tnext = _sample_coupled(rng, _window(tj[-1], tli), (0, 2 * tmax))
            if tnext is None:
                ok = False
                break
            tl.append(tli)
            tj.append(tnext)
        if not ok:
            continue
        # close the j-chain into k1 via l_n, then build the k-chain back
        tln = rng.randrange(0, tmax + 1)
        tk1 = _sample_coupled(rng, _window(tj[-1], tln), (0, 2 * tmax))
        if tk1 is None:
            continue
        tl.append(tln)
        tk = [tk1]
        for i in range(n - 1):
            tki = _sample_coupled(rng, _window(tk[-1], tl[i]), (0, 2 * tmax))
            if tki is None:
                ok = False
                break
            tk.append(tki)
        if not ok:
            continue
        sym = Symbol3nj(tuple(map(h, tj)), tuple(map(h, tk)), tuple(map(h, tl)))
        if sym.is_valid():
            return sym


class FactorialLedger(_Ledger):
    """The package's factorial ledger plus n!, its exponent dict and the
    plain factorial quotient, which only tests read."""

    def factorial_quotient(self, terms) -> Fraction:
        """Exact value of prod_i (n_i!)**c_i as a Fraction in lowest terms."""
        exps = self.combined_exponents(terms).items()
        return Fraction(_product([p ** e for p, e in exps if e > 0]),
                        _product([p ** -e for p, e in exps if e < 0]))

    def factorial_exponents(self, n: int) -> dict:
        """{prime: exponent} for n!, decoded from its packed vector."""
        if n < 0:
            raise ValueError("factorial of a negative number")
        vec = self._vector(n)
        primes = self.primes_upto(n)
        return dict(zip(primes, _unpack(vec, len(primes))))

    def factorial(self, n: int) -> int:
        """n! reconstructed from its exponent vector."""
        return math.prod(p ** e for p, e in self.factorial_exponents(n).items())
