"""Semiclassical asymptotics of Wigner symbols with mixed small/large spins.

Oscillatory 6j factors follow the stationary-tetrahedron form
cos(S_R + pi/4)/sqrt(12 pi V); 6j factors with one small spin reduce to a
small-d matrix element at a triangle angle.  Chaining these through the 6j
decomposition of a 3nj symbol and resumming the intermediate-spin sum as an
SU(2) rotation yields one secondary (glued-triangle) tetrahedron per sign
configuration of the oscillatory factors; the general driver and the
closed 9j/15j forms below all follow that construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import NamedTuple

from .errors import (
    CaseAngleOutOfRange,
    DegenerateTriangle,
    HypothesisViolation,
    InternalConsistencyError,
    NotClassicallyAllowed,
)
from .exact import Symbol3nj, Symbol9j
from .geometry import (
    DEFAULT_CAUSTIC_EPS,
    Tetrahedron,
    build_sigma_tet,
    dihedral_external,
    dihedral_internal,
    edge_length_from_spin,
    euler_from_glued_triangles,
    f_phase,
    omega_classify,
    regge_action,
    triangle_angle,
    volume,
)
from .halfint import HalfInt, halfint_sum, phase_complex
from .wigner_d import small_d

QUARTER_PI = math.pi / 4.0

#: Declared-small spins larger than this fraction of the median large spin
#: trigger a warning: the asymptotic separation of scales is doubtful.
DEFAULT_SMALL_RATIO = 0.15


@dataclass
class AsymDiagnostics:
    """Geometry backing an asymptotic value, for validation and plotting."""

    volumes: dict = field(default_factory=dict)
    regge_actions: dict = field(default_factory=dict)
    angles: dict = field(default_factory=dict)
    flags: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    sign_configs: list = field(default_factory=list)


@dataclass(frozen=True)
class Violation:
    code: str
    severity: str          # "error" | "warning"
    message: str


def _oscillatory_tet(spins, label: str, key: str, caustic_eps: float,
                     diag: AsymDiagnostics, tet: Tetrahedron | None = None):
    """Tetrahedron, volume and Regge action of an all-large 6j factor.

    ``tet`` is the tetrahedron of ``spins`` if already built.  Edge lengths
    that do not close count as deep classically-forbidden: like a
    tetrahedron beyond the caustic guard or a flat one, they raise
    NotClassicallyAllowed.  Within the guard the factor is flagged
    ``near_caustic:<key>``; its volume and action are recorded under ``key``.
    """
    if tet is None:
        try:
            tet = Tetrahedron.from_spins(spins)
        except DegenerateTriangle as exc:
            raise NotClassicallyAllowed(
                f"{label}: edge lengths do not close into a tetrahedron ({exc})",
                float("-inf"),
            ) from exc
    status = tet.status(caustic_eps)
    if status == "forbidden":
        raise NotClassicallyAllowed(f"{label} not classically allowed", tet.cayley_menger())
    if status == "near_caustic":
        diag.flags.append(f"near_caustic:{key}")
    vol = volume(tet, caustic_eps)
    if vol <= 0.0:
        raise NotClassicallyAllowed(f"{label} is flat", tet.cayley_menger())
    action = regge_action(tet, spins, caustic_eps)
    diag.volumes[key] = vol
    diag.regge_actions[key] = action
    return tet, vol, action


# ----------------------------------------------------------------------
# 6j asymptotics
# ----------------------------------------------------------------------

def pr_6j(spins, caustic_eps: float = DEFAULT_CAUSTIC_EPS):
    """Oscillatory 6j asymptotics cos(S_R + pi/4)/sqrt(12 pi V) for six
    large spins in the standard layout {a b c; d e f}."""
    spins = [HalfInt(j) for j in spins]
    diag = AsymDiagnostics()
    _, vol, action = _oscillatory_tet(spins, "tetrahedron", "tet", caustic_eps, diag)
    value = math.cos(action + QUARTER_PI) / math.sqrt(12.0 * math.pi * vol)
    return value, diag


def edmonds_6j(a, b, c, m, n, f, lengths: str = "half") -> float:
    """One-small-spin 6j asymptotics for {a b c; b+m a+n f}:
    (-1)^(a+b+c+f+m) d^(f)_{mn}(phi_ab) / sqrt(d_a d_b),
    with phi_ab the angle between the a and b edges of the triangle
    (a, b, c).  ``lengths`` picks l = j + 1/2 ("half") or sqrt(j(j+1))
    ("sqrt"); the two differ at sub-leading order only.
    """
    a, b, c, f = HalfInt(a), HalfInt(b), HalfInt(c), HalfInt(f)
    m, n = HalfInt(m), HalfInt(n)
    for proj in (m, n):
        if not _projection_ok(proj, f):
            raise ValueError(f"projection {proj} invalid for small spin {f}")
    if lengths == "half":
        la, lb, lc = (edge_length_from_spin(x) for x in (a, b, c))
    elif lengths == "sqrt":
        la, lb, lc = (math.sqrt(float(x) * (float(x) + 1.0)) for x in (a, b, c))
    else:
        raise ValueError("lengths must be 'half' or 'sqrt'")
    phi = triangle_angle(la, lb, lc)
    phase = _int_phase(halfint_sum([a, b, c, f, m]), "edmonds phase a+b+c+f+m")
    return phase * small_d(f, m, n, phi) / math.sqrt(a.dim * b.dim)


# ----------------------------------------------------------------------
# 9j with one small spin
# ----------------------------------------------------------------------

def asym_9j_one_small(
    sym: Symbol9j,
    caustic_eps: float = DEFAULT_CAUSTIC_EPS,
    small_ratio: float = DEFAULT_SMALL_RATIO,
):
    """Asymptotics of a 9j symbol with a single small spin in the s slot.

    The eight large spins define a reference tetrahedron (the 6j
    {j1 j2 j12; j34 j5 j24}); a companion tetrahedron is glued from its
    faces (1,5,24) and (2,34,24) with the external dihedral at 24 as the
    new internal gluing angle, and supplies the residual rotation angles.
    """
    diag = AsymDiagnostics()
    mu = sym.j13 - sym.j1
    nu = sym.j34 - sym.j4
    if not sym.is_valid():
        diag.flags.append("invalid_symbol")
        return 0.0, diag
    if abs(mu.twice) > sym.s.twice or abs(nu.twice) > sym.s.twice:
        diag.flags.append("invalid_symbol")
        return 0.0, diag

    large = [float(getattr(sym, name)) for name in
             ("j1", "j2", "j12", "j4", "j34", "j13", "j24", "j5")]
    med = sorted(large)[len(large) // 2]
    if med > 0 and float(sym.s) / med > small_ratio:
        diag.warnings.append(
            f"declared small spin s={sym.s} is {float(sym.s) / med:.2f} of the "
            f"median large spin; asymptotics may be poor"
        )

    tet1_spins = (sym.j1, sym.j2, sym.j12, sym.j34, sym.j5, sym.j24)
    tet1, vol1, action = _oscillatory_tet(
        tet1_spins, "reference tetrahedron", "tet1", caustic_eps, diag
    )
    theta24_ext = dihedral_external(tet1, "f", caustic_eps)

    l1 = edge_length_from_spin(sym.j1)
    l2 = edge_length_from_spin(sym.j2)
    l34 = edge_length_from_spin(sym.j34)
    l5 = edge_length_from_spin(sym.j5)
    l24 = edge_length_from_spin(sym.j24)
    phi_1_24 = triangle_angle(l1, l24, l5)
    phi_34_24 = triangle_angle(l34, l24, l2)
    theta_1, phi_1_34, theta_34 = euler_from_glued_triangles(phi_1_24, theta24_ext, phi_34_24)
    tet2 = build_sigma_tet((l24, l1, l5), (l24, l34, l2), theta24_ext)

    phase = _int_phase(
        halfint_sum([sym.j13, sym.j2, sym.j34, sym.j5, sym.s]),
        "9j phase j13+j2+j34+j5+s",
    )
    argument = action + QUARTER_PI - float(mu) * (math.pi - theta_1) - float(nu) * theta_34
    value = (
        phase
        * math.cos(argument)
        * small_d(sym.s, mu, nu, math.pi - phi_1_34)
        / math.sqrt(sym.j1.dim * sym.j34.dim * 12.0 * math.pi * vol1)
    )

    diag.angles.update(
        {
            "phi_1_24": phi_1_24,
            "phi_34_24": phi_34_24,
            "Theta24_ext": theta24_ext,
            "theta_1": theta_1,
            "phi_1_34": phi_1_34,
            "theta_34": theta_34,
            "companion_sixth_edge": tet2.lengths[3],
        }
    )
    return value, diag


# ----------------------------------------------------------------------
# General 3nj with marked small spins
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SmallSpinMarking:
    """Declares which spins of a first-kind 3nj symbol stay small.

    Exactly one entry of the j/k rows plus any subset of l entries.
    Rows and indices are 1-based, matching the symbol layout.
    """

    small_jk: tuple            # ("j" | "k", index)
    small_l: frozenset = frozenset()

    def __post_init__(self):
        row, idx = self.small_jk
        if row not in ("j", "k") or not isinstance(idx, int) or idx < 1:
            raise ValueError("small_jk must be ('j'|'k', 1-based index)")
        object.__setattr__(self, "small_l", frozenset(int(i) for i in self.small_l))

    def normalized_shift(self, n: int) -> int:
        row, idx = self.small_jk
        if idx > n:
            raise ValueError(f"index {idx} out of range for n={n}")
        return (idx - 1) + (n if row == "k" else 0)


def normalize_marking(sym: Symbol3nj, mark: SmallSpinMarking):
    """Rotate the symbol (a symmetry) so the small j/k spin sits at j1.

    Returns (rotated symbol, small-l index set in the rotated labels).
    """
    shift = mark.normalized_shift(sym.n)
    if shift == 0:
        return sym, mark.small_l
    rotated = sym.rotated(shift)
    ls = shift % sym.n
    small_l = frozenset(((m - 1 - ls) % sym.n) + 1 for m in mark.small_l)
    return rotated, small_l


def validate_hypotheses(
    sym: Symbol3nj,
    mark: SmallSpinMarking,
    caustic_eps: float = DEFAULT_CAUSTIC_EPS,
    small_ratio: float = DEFAULT_SMALL_RATIO,
):
    """Check the applicability conditions for the mixed-spin asymptotics.

    Returns a list of :class:`Violation`; empty means ok.  Error-grade
    entries: a small l adjacent to the small j/k spin (two small spins in
    one decomposition 6j), or an oscillatory tetrahedron beyond the
    caustic.  Warning-grade: near-caustic tetrahedra and doubtful scale
    separation.
    """
    nsym, small_l = normalize_marking(sym, mark)
    return _violations(nsym, small_l, _chain_tets(nsym, small_l), caustic_eps, small_ratio)


def _violations(nsym: Symbol3nj, small_l, tets: dict, caustic_eps: float,
                small_ratio: float) -> list:
    n = nsym.n
    out = []
    for m in sorted(small_l):
        if m < 2 or m > n - 1:
            out.append(
                Violation(
                    "small_l_index",
                    "error",
                    f"small l_{m} (after normalization) shares a decomposition "
                    f"6j with the small j/k spin; every small l must have index "
                    f"in 2..n-1",
                )
            )
    declared = [float(nsym.j[0])] + [float(nsym.l[m - 1]) for m in small_l if 1 <= m <= n]
    undeclared = (
        [float(x) for x in nsym.j[1:]]
        + [float(x) for x in nsym.k]
        + [float(nsym.l[i]) for i in range(n) if (i + 1) not in small_l]
    )
    med = sorted(undeclared)[len(undeclared) // 2] if undeclared else 0.0
    if med > 0:
        for v in declared:
            if v / med > small_ratio:
                out.append(
                    Violation(
                        "scale_ratio",
                        "warning",
                        f"declared small spin {v} is {v / med:.2f} of the median "
                        f"large spin {med}",
                    )
                )
        for v in undeclared:
            if v < 0.5 * max(declared + [0.5]):
                out.append(
                    Violation(
                        "undeclared_small",
                        "warning",
                        f"undeclared spin {v} is comparable to the declared small spins",
                    )
                )
    for p, tet in tets.items():
        if tet is None:
            out.append(
                Violation(
                    "caustic",
                    "error",
                    f"tetrahedron p={p} has no Euclidean realization "
                    f"(a face violates the triangle inequality)",
                )
            )
            continue
        status = tet.status(caustic_eps)
        if status == "forbidden":
            out.append(
                Violation(
                    "caustic",
                    "error",
                    f"tetrahedron p={p} is not classically allowed "
                    f"(CM determinant {tet.cayley_menger():.6g})",
                )
            )
        elif status == "near_caustic":
            out.append(Violation("caustic", "warning", f"tetrahedron p={p} is near the caustic"))
    return out


def oscillatory_tetrahedra(sym: Symbol3nj, mark: SmallSpinMarking) -> dict:
    """The oscillatory tetrahedra of a chain symbol under a marking.

    Maps each index p of an all-large decomposition 6j
    {j_p k_p x; k_{p+1} j_{p+1} l_p} at x = k1 of the normalized symbol
    (see :func:`normalize_marking`) to its tetrahedron, or to None when
    its edge lengths do not close into one.
    """
    nsym, small_l = normalize_marking(sym, mark)
    return _chain_tets(nsym, small_l)


def _chain_tets(nsym: Symbol3nj, small_l) -> dict:
    out = {}
    for p in range(2, nsym.n):
        if p in small_l:
            continue
        try:
            out[p] = Tetrahedron.from_spins(_chain_tet_spins(nsym, p))
        except DegenerateTriangle:
            out[p] = None
    return out


def _chain_tet_spins(nsym: Symbol3nj, p: int):
    j, k, l = nsym.j, nsym.k, nsym.l
    return (j[p - 1], k[p - 1], k[0], k[p], j[p], l[p - 1])


class _Chain(NamedTuple):
    """A chain symbol prepared for its mixed-spin asymptotics."""

    sym: Symbol3nj        # normalized: the small j/k spin sits at j1
    small_l: frozenset
    mu: HalfInt           # j2 - l1
    nu: HalfInt           # k_n - l_n
    etas: dict            # m -> j_{m+1} - j_m, per small l_m
    kappas: dict          # m -> k_{m+1} - k_m, per small l_m
    volumes: dict         # p -> volume of the oscillatory tetrahedron
    actions: dict         # p -> its Regge action
    thetas: dict          # p -> its internal dihedral at the k1 edge


def _chain_prep(sym: Symbol3nj, mark: SmallSpinMarking, caustic_eps: float,
                diag: AsymDiagnostics, small_ratio: float | None = None):
    """The set-up shared by the chain asymptotics.

    Normalizes the marking and, when ``small_ratio`` is given, checks the
    hypotheses: HypothesisViolation on a hard violation, warnings into
    ``diag``.  Returns None, flagging ``invalid_symbol``, when a projection
    offset is out of range and the symbol vanishes.  Otherwise returns a
    :class:`_Chain`; every oscillatory tetrahedron is checked and recorded
    as in :func:`_oscillatory_tet`.
    """
    nsym, small_l = normalize_marking(sym, mark)
    tets = _chain_tets(nsym, small_l)
    if small_ratio is not None:
        violations = _violations(nsym, small_l, tets, caustic_eps, small_ratio)
        hard = [v for v in violations if v.severity == "error" and v.code != "caustic"]
        if hard:
            raise HypothesisViolation("marking violates applicability conditions", hard)
        diag.warnings.extend(v.message for v in violations if v.severity == "warning")

    j, k, l = nsym.j, nsym.k, nsym.l
    mu = j[1] - l[0]
    nu = k[-1] - l[-1]
    if not _projection_ok(mu, j[0]) or not _projection_ok(nu, j[0]):
        diag.flags.append("invalid_symbol")
        return None
    etas, kappas = {}, {}
    for m in sorted(small_l):
        etas[m] = j[m] - j[m - 1]
        kappas[m] = k[m] - k[m - 1]
        if not _projection_ok(etas[m], l[m - 1]) or not _projection_ok(kappas[m], l[m - 1]):
            diag.flags.append("invalid_symbol")
            return None

    volumes, actions, thetas = {}, {}, {}
    for p, tet in tets.items():
        tet, volumes[p], actions[p] = _oscillatory_tet(
            _chain_tet_spins(nsym, p), f"tetrahedron p={p}", f"tet_{p}",
            caustic_eps, diag, tet,
        )
        thetas[p] = dihedral_internal(tet, "c", caustic_eps)
    return _Chain(nsym, small_l, mu, nu, etas, kappas, volumes, actions, thetas)


def _end_triangles(nsym: Symbol3nj):
    """Edge lengths of the triangles (k1, l1, k2) and (k1, l_n, j_n) that
    the sign-configuration sum glues along k1."""
    j, k, l = nsym.j, nsym.k, nsym.l
    lk1 = edge_length_from_spin(k[0])
    return (
        (lk1, edge_length_from_spin(l[0]), edge_length_from_spin(k[1])),
        (lk1, edge_length_from_spin(l[-1]), edge_length_from_spin(j[-1])),
    )


def _spin_angle(a, b, c) -> float:
    """Angle between the edges of spins a and b in the triangle (a, b, c),
    with edge lengths j + 1/2."""
    return triangle_angle(
        edge_length_from_spin(a), edge_length_from_spin(b), edge_length_from_spin(c)
    )


def _small_l_factor(chain: _Chain, diag: AsymDiagnostics) -> float:
    """Product over the small l_m of d^(l_m)_{kappa_m eta_m}(phi_m) /
    sqrt(d_{j_m} d_{k_m}), phi_m the angle between the j_m and k_m edges of
    the triangle (j_m, k_m, k1)."""
    j, k, l = chain.sym.j, chain.sym.k, chain.sym.l
    factor = 1.0
    for m in sorted(chain.small_l):
        phi_m = _spin_angle(j[m - 1], k[m - 1], k[0])
        diag.angles[f"phi_{m}"] = phi_m
        factor *= small_d(l[m - 1], chain.kappas[m], chain.etas[m], phi_m) / math.sqrt(
            j[m - 1].dim * k[m - 1].dim
        )
    return factor


def asym_3nj(
    sym: Symbol3nj,
    mark: SmallSpinMarking,
    caustic_eps: float = DEFAULT_CAUSTIC_EPS,
    small_ratio: float = DEFAULT_SMALL_RATIO,
):
    """General mixed-spin asymptotics of a first-kind 3nj symbol.

    One oscillatory tetrahedron per all-large decomposition 6j, one
    small-d factor per marked small l, and a sum over the 2^P sign
    configurations, each with its own glued secondary tetrahedron and
    residual phase.
    """
    diag = AsymDiagnostics()
    chain = _chain_prep(sym, mark, caustic_eps, diag, small_ratio)
    if chain is None:
        return 0.0, diag
    nsym, small_l, mu, nu = chain.sym, chain.small_l, chain.mu, chain.nu
    n = nsym.n
    j1 = nsym.j[0]
    l = nsym.l
    m_count = len(small_l)
    p_set = list(chain.volumes)

    tri1, trin = _end_triangles(nsym)
    phi1, phin = triangle_angle(*tri1), triangle_angle(*trin)
    diag.angles["phi1"] = phi1
    diag.angles["phin"] = phin
    theta_list = [math.pi - chain.thetas[p] for p in p_set]
    diag.angles.update({f"Theta_k1_{p}": th for p, th in zip(p_set, theta_list)})
    small_factor = _small_l_factor(chain, diag)

    config_sum = 0.0
    for sigma in product((1, -1), repeat=len(p_set)):
        cfg = omega_classify(n, m_count, theta_list, sigma, j1)
        theta_l1, phi_mid, theta_ln = euler_from_glued_triangles(phi1, cfg.theta_k1, phin)
        f_val = f_phase(cfg, mu, nu, theta_l1, theta_ln, j1)
        argument = (
            sum(s * (chain.actions[p] + QUARTER_PI) for s, p in zip(sigma, p_set))
            + math.pi * (n + m_count) * float(j1)
            + f_val
        )
        sigma_tet = build_sigma_tet(tri1, trin, cfg.theta_k1)
        config_sum += math.cos(argument) * small_d(j1, mu, nu, phi_mid)
        diag.sign_configs.append(
            {
                "sigma": cfg.sigma,
                "omega": cfg.omega,
                "case": cfg.case_id,
                "theta_k1": cfg.theta_k1,
                "theta_l1": theta_l1,
                "phi_l1_ln": phi_mid,
                "theta_ln": theta_ln,
                "f": f_val,
                "boundary": cfg.boundary,
                "glued_sixth_edge": sigma_tet.lengths[3],
            }
        )

    amplitude = small_factor / (2.0 ** len(p_set) * math.sqrt(l[0].dim * l[n - 1].dim))
    for p in p_set:
        amplitude /= math.sqrt(12.0 * math.pi * chain.volumes[p])

    r_exp = _chain_sign_exponent(nsym, small_l, mu)
    value = _apply_half_integer_phase(r_exp, amplitude * config_sum)
    return value, diag


def asym_3nj_xi_sum(
    sym: Symbol3nj,
    mark: SmallSpinMarking,
    caustic_eps: float = DEFAULT_CAUSTIC_EPS,
    small_ratio: float = DEFAULT_SMALL_RATIO,
) -> float:
    """The same asymptotics before the sign-configuration resummation: a
    direct sum over the residual intermediate-spin offset.  Agrees with
    :func:`asym_3nj` to machine precision; kept as an independent route
    through the angle bookkeeping."""
    diag = AsymDiagnostics()
    chain = _chain_prep(sym, mark, caustic_eps, diag, small_ratio)
    if chain is None:
        return 0.0
    nsym, small_l, mu, nu = chain.sym, chain.small_l, chain.mu, chain.nu
    n = nsym.n
    j1 = nsym.j[0]
    l = nsym.l
    m_count = len(small_l)
    phi1, phin = (triangle_angle(*tri) for tri in _end_triangles(nsym))
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

    amplitude = small_factor / math.sqrt(l[0].dim * l[n - 1].dim)
    r_exp = _chain_sign_exponent(nsym, small_l, mu)
    return _apply_half_integer_phase(r_exp, amplitude * total)


def _projection_ok(m: HalfInt, j: HalfInt) -> bool:
    return abs(m.twice) <= j.twice and (j.twice - m.twice) % 2 == 0


def _chain_sign_exponent(nsym: Symbol3nj, small_l, mu: HalfInt) -> HalfInt:
    """Global sign exponent of the mixed-spin formula (integer on valid
    symbols): R_n + (n+M-1)(k1+j1) + (mu-j1) + (k1+k2+l1) + (k1+jn+ln)
    + sum_m (j_m + l_m + k_{m+1})."""
    n = nsym.n
    j, k, l = nsym.j, nsym.k, nsym.l
    j1 = j[0]
    terms = [nsym.r_total(), (k[0] + j1) * (n + len(small_l) - 1), mu - j1,
             k[0] + k[1] + l[0], k[0] + j[n - 1] + l[n - 1]]
    for m in sorted(small_l):
        terms.append(j[m - 1] + l[m - 1] + k[m])
    return halfint_sum(terms)


def _apply_half_integer_phase(exponent: HalfInt, magnitude: float) -> float:
    """(-1)**exponent * magnitude, tolerating a (never expected) half-integer
    exponent as a complex phase whose imaginary part must cancel."""
    if exponent.twice % 2 == 0:
        sign = -1.0 if (exponent.twice // 2) % 2 else 1.0
        return sign * magnitude
    out = phase_complex(exponent) * magnitude
    if abs(out.imag) > 1e-9 * (abs(out.real) + 1e-300):
        raise InternalConsistencyError(
            f"half-integer sign exponent {exponent} left an imaginary part"
        )
    return out.real


def _int_phase(e: HalfInt, context: str) -> int:
    if e.twice % 2 != 0:
        raise InternalConsistencyError(f"{context}: exponent {e} is not an integer")
    return -1 if (e.twice // 2) % 2 else 1


# ----------------------------------------------------------------------
# 15j special cases (closed forms; only the set-up is shared with asym_3nj)
# ----------------------------------------------------------------------

def _require_pattern(sym: Symbol3nj, mark: SmallSpinMarking, expected_l):
    if sym.n != 5:
        raise ValueError("15j wrappers need n = 5")
    if mark.small_jk != ("j", 1):
        raise ValueError("15j wrappers expect the small spin at j1 (normalize first)")
    if mark.small_l != frozenset(expected_l):
        raise ValueError(f"marking must declare small l indices {set(expected_l)}")


def asym_15j_four_small(sym: Symbol3nj, mark: SmallSpinMarking,
                        caustic_eps: float = DEFAULT_CAUSTIC_EPS):
    """15j with j1, l2, l3, l4 small: all decomposition 6js carry one small
    spin, no oscillation survives, and every relevant triangle degenerates
    to (j2, k2, k1)."""
    _require_pattern(sym, mark, {2, 3, 4})
    diag = AsymDiagnostics()
    chain = _chain_prep(sym, mark, caustic_eps, diag)
    if chain is None:
        return 0.0, diag
    mu, nu, etas, kappas = chain.mu, chain.nu, chain.etas, chain.kappas
    j, k, l = sym.j, sym.k, sym.l
    phi2 = _spin_angle(j[1], k[1], k[0])
    diag.angles["phi2"] = phi2
    value = 1.0 / (j[1].dim ** 2 * k[1].dim ** 2)
    for m in (2, 3, 4):
        value *= small_d(l[m - 1], kappas[m], etas[m], phi2)
    value *= small_d(j[0], mu, -nu, phi2)
    return value, diag


def asym_15j_three_small(sym: Symbol3nj, mark: SmallSpinMarking,
                         caustic_eps: float = DEFAULT_CAUSTIC_EPS):
    """15j with j1, l2, l3 small: one oscillatory tetrahedron (p = 4); the
    secondary tetrahedron glues its faces at k1 with the external dihedral
    as the new internal angle."""
    _require_pattern(sym, mark, {2, 3})
    diag = AsymDiagnostics()
    chain = _chain_prep(sym, mark, caustic_eps, diag)
    if chain is None:
        return 0.0, diag
    mu, nu, etas, kappas = chain.mu, chain.nu, chain.etas, chain.kappas
    j, k, l = sym.j, sym.k, sym.l

    vol4, action4 = chain.volumes[4], chain.actions[4]
    theta_ext = math.pi - chain.thetas[4]
    phi_a = _spin_angle(k[0], j[3], k[3])
    phi_b = _spin_angle(k[0], k[4], j[4])
    theta_j4, phi_mid, theta_k5 = euler_from_glued_triangles(phi_a, theta_ext, phi_b)
    diag.angles.update(
        {"phi_a": phi_a, "phi_b": phi_b, "theta_k1_ext": theta_ext,
         "theta_j4": theta_j4, "phi_j4_k5": phi_mid, "theta_k5": theta_k5}
    )

    phi2 = _spin_angle(j[1], k[1], k[0])
    diag.angles["phi2"] = phi2
    phase = _int_phase(
        halfint_sum([sym.k[0], sym.j[3], sym.l[3], sym.k[4], 2 * sym.j[0], mu]),
        "three-small phase",
    )
    value = (
        phase
        / (j[1].dim * k[1].dim * math.sqrt(12.0 * math.pi * vol4 * j[1].dim * k[4].dim))
        * small_d(l[1], kappas[2], etas[2], phi2)
        * small_d(l[2], kappas[3], etas[3], phi2)
        * small_d(j[0], mu, nu, phi_mid)
        * math.cos(
            action4 + QUARTER_PI - float(mu) * theta_j4 - float(nu) * theta_k5
            + math.pi * float(j[0])
        )
    )
    return value, diag


def asym_15j_two_small(sym: Symbol3nj, mark: SmallSpinMarking,
                       caustic_eps: float = DEFAULT_CAUSTIC_EPS):
    """15j with j1, l2 small: two oscillatory tetrahedra (p = 3, 4), two
    distinct sign configurations.  Assumes the combined gluing angles stay
    in [0, pi] (near-regular tetrahedra); raises CaseAngleOutOfRange
    otherwise, in which case the general driver applies."""
    _require_pattern(sym, mark, {2})
    diag = AsymDiagnostics()
    chain = _chain_prep(sym, mark, caustic_eps, diag)
    if chain is None:
        return 0.0, diag
    mu, nu, etas, kappas = chain.mu, chain.nu, chain.etas, chain.kappas
    j, k, l = sym.j, sym.k, sym.l

    vol3, vol4 = chain.volumes[3], chain.volumes[4]
    action3, action4 = chain.actions[3], chain.actions[4]
    theta3, theta4 = chain.thetas[3], chain.thetas[4]

    theta_pp = math.pi - (theta3 + theta4)
    if theta_pp < -1e-12:
        raise CaseAngleOutOfRange(
            f"pi - (theta3 + theta4) = {theta_pp:.4f} < 0: outside the "
            f"near-regular regime; use the general mixed-spin driver"
        )
    theta_pp = max(0.0, theta_pp)
    # Convention theta3 >= theta4; otherwise swap the roles of the two
    # oscillatory tetrahedra in the difference term.
    if theta3 >= theta4:
        action_diff = action3 - action4
        theta_pm = math.pi - (theta3 - theta4)
    else:
        action_diff = action4 - action3
        theta_pm = math.pi - (theta4 - theta3)

    phi_a = _spin_angle(k[0], j[2], k[2])
    phi_b = _spin_angle(k[0], k[4], j[4])
    theta_j3_pp, mid_pp, theta_k5_pp = euler_from_glued_triangles(phi_a, theta_pp, phi_b)
    theta_j3_pm, mid_pm, theta_k5_pm = euler_from_glued_triangles(phi_a, theta_pm, phi_b)
    diag.angles.update(
        {"phi_a": phi_a, "phi_b": phi_b, "theta3": theta3, "theta4": theta4,
         "theta_pp": theta_pp, "theta_pm": theta_pm,
         "phi_j3_k5_pp": mid_pp, "phi_j3_k5_pm": mid_pm}
    )

    phi2 = _spin_angle(j[1], k[1], k[0])
    phase = _int_phase(
        halfint_sum([j[2], l[2], j[3], k[3], l[3], k[4], j[0], mu, 2 * k[0]]),
        "two-small phase",
    )
    wrap = -1.0 if j[0].twice % 2 else 1.0
    bracket = (
        -small_d(j[0], mu, nu, mid_pp)
        * math.sin(action3 + action4 - float(mu) * theta_j3_pp - float(nu) * theta_k5_pp)
        + wrap
        * small_d(j[0], mu, nu, mid_pm)
        * math.cos(action_diff - float(mu) * theta_j3_pm - float(nu) * theta_k5_pm)
    )
    value = (
        phase
        / (24.0 * math.pi * j[2].dim * math.sqrt(k[2].dim * k[4].dim * vol3 * vol4))
        * small_d(l[1], kappas[2], etas[2], phi2)
        * bracket
    )
    return value, diag


def asym_15j_one_small(sym: Symbol3nj, mark: SmallSpinMarking,
                       caustic_eps: float = DEFAULT_CAUSTIC_EPS):
    """15j with only j1 small: three oscillatory tetrahedra (p = 2, 3, 4)
    and four distinct sign configurations, with gluing angles combined
    from the three internal dihedrals at k1 (near-regular regime)."""
    _require_pattern(sym, mark, set())
    diag = AsymDiagnostics()
    chain = _chain_prep(sym, mark, caustic_eps, diag)
    if chain is None:
        return 0.0, diag
    mu, nu = chain.mu, chain.nu
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
            raise CaseAngleOutOfRange(
                f"combined angle {name} = {theta:.4f} outside [0, pi]: outside "
                f"the near-regular regime; use the general mixed-spin driver"
            )
        combos[name] = min(math.pi, max(0.0, theta))

    phi_a = _spin_angle(k[0], j[1], k[1])
    phi_b = _spin_angle(k[0], k[4], j[4])
    euler = {name: euler_from_glued_triangles(phi_a, theta, phi_b)
             for name, theta in combos.items()}
    diag.angles.update({"phi_a": phi_a, "phi_b": phi_b})
    diag.angles.update({f"theta_{name}": th for name, th in combos.items()})

    s2, s3, s4 = actions[2], actions[3], actions[4]
    pj1 = math.pi * float(j[0])
    terms = []
    for name, signs, extra in (
        ("ppm", (1, 1, -1), QUARTER_PI),
        ("pmp", (1, -1, 1), QUARTER_PI),
        ("mpp", (-1, 1, 1), QUARTER_PI),
    ):
        theta_j2, mid, theta_k5 = euler[name]
        arg = (
            signs[0] * s2 + signs[1] * s3 + signs[2] * s4 + extra
            - float(mu) * theta_j2 - float(nu) * theta_k5 + pj1
        )
        terms.append(small_d(j[0], mu, nu, mid) * math.cos(arg))
    theta_j2, mid, theta_k5 = euler["ppp"]
    arg = (
        s2 + s3 + s4 + 3.0 * QUARTER_PI
        + float(mu) * theta_j2 + float(nu) * theta_k5 + pj1
    )
    terms.append(small_d(j[0], mu, nu, mid) * math.cos(arg))

    phase = _int_phase(
        halfint_sum([j[1], l[1], j[2], k[2], l[2], k[3], j[3], l[3], k[4], -k[0], mu]),
        "one-small phase",
    )
    # The amplitude follows the general driver: 1/(2^2 (12 pi)^(3/2))
    # with the dimension factors of l1 ~ j2 and l5 ~ k5.
    value = (
        phase
        / (48.0 * math.pi * math.sqrt(12.0 * math.pi * j[1].dim * k[4].dim
                                      * vols[2] * vols[3] * vols[4]))
        * sum(terms)
    )
    return value, diag


#: The closed 15j forms by name, each with the small-l set it assumes
#: (small spin at j1); the CLI and the sweep harness both read this table.
CLOSED_15J_FORMS = {
    "15j-1": (asym_15j_one_small, frozenset()),
    "15j-2": (asym_15j_two_small, frozenset({2})),
    "15j-3": (asym_15j_three_small, frozenset({2, 3})),
    "15j-4": (asym_15j_four_small, frozenset({2, 3, 4})),
}
