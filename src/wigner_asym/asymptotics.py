"""Semiclassical asymptotics of Wigner symbols with mixed small/large spins.

Oscillatory 6j factors follow the stationary-tetrahedron form
cos(S_R + pi/4)/sqrt(12 pi V); 6j factors with one small spin reduce to a
small-d matrix element at a triangle angle.  Chaining these through the 6j
decomposition of a 3nj symbol and resumming the intermediate-spin sum as an
SU(2) rotation yields one secondary (glued-triangle) tetrahedron per sign
configuration of the oscillatory factors.

One core, :func:`_chain_value`, holds that sign-configuration sum.  A
configuration and its global flip contribute equally, so it sums the half
with sigma_1 = +1, twice over.  Three public formulas are its cases, and
differ only in the end spins of the two triangles glued along k1 (and of
the amplitude 1/sqrt(d_end1 d_endn)):

- ``asym_3nj``: any first-kind chain and marking, ends (l1, l_n);
- ``asym_9j_one_small``: the 9j as its n = 3 chain times (-1)^R, ends
  (j2, k3);
- ``asym_15j_one_small``: the 15j with only j1 small, ends (j2, k5), in the
  near-regular regime.

The 15j forms with two to four small spins are closed forms that share
only the set-up, :func:`_chain_prep`.

Spins are converted and checked once, at each public entry.  Below it the
formulas read twice spins t (plain ints) and the edge lengths t/2 + 1/2,
with no HalfInt and no second projection check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from itertools import product
from operator import mul
from typing import NamedTuple

from .errors import (
    CaseAngleOutOfRange,
    DegenerateTriangle,
    HypothesisViolation,
    InternalConsistencyError,
    InvalidProjection,
    NotClassicallyAllowed,
)
from .exact import Symbol3nj, Symbol9j
from .geometry import (
    Tetrahedron,
    _classify_omega,
    _glued_vertex,
    _residual_phase,
    euler_from_glued_triangles,
    triangle_angle,
)
from .halfint import HalfInt, projection_twice_ok
from .wigner_d import _small_d

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


def _nonnegative(twice: list) -> list:
    """``twice``, the twice spins at a formula's entry; ValueError naming
    the smallest when it is negative."""
    if min(twice, default=0) < 0:
        raise ValueError(f"spin {HalfInt.from_twice(min(twice))} is negative")
    return twice


def _oscillatory_tet(twice, p, diag: AsymDiagnostics) -> Tetrahedron:
    """The tetrahedron of an all-large 6j factor, from its six twice spins:
    chain tetrahedron ``p``, or the one of :func:`pr_6j` for p = None.

    A Cayley-Menger determinant <= 0 (forbidden or flat) raises
    NotClassicallyAllowed, and so do edge lengths that do not close, as
    deep classically-forbidden.  Within the caustic guard the factor is
    flagged ``near_caustic:<key>``; its stored volume and action are
    recorded under ``key``, ``tet_<p>`` or ``tet``.
    """
    key = "tet" if p is None else _index_keys(p)[0]
    try:
        tet = Tetrahedron._from_twice(twice)
    except DegenerateTriangle as exc:
        raise NotClassicallyAllowed(
            f"{_tet_label(p)}: edge lengths do not close into a tetrahedron ({exc})",
            float("-inf"),
        ) from exc
    cm = tet._cm
    if cm <= 0.0:
        raise NotClassicallyAllowed(
            f"{_tet_label(p)} not classically allowed (Cayley-Menger determinant {cm:.6g})", cm)
    if tet._status == "near_caustic":
        diag.flags.append(f"near_caustic:{key}")
    diag.volumes[key] = tet._volume
    diag.regge_actions[key] = tet._action
    return tet


def _tet_label(p) -> str:
    return "tetrahedron" if p is None else f"tetrahedron p={p}"


@cache
def _index_keys(p: int) -> tuple:
    """The diagnostics keys of chain index p, made once per p: its
    tetrahedron's ``tet_<p>``, its angle's ``Theta_k1_<p>`` and, for a small
    l_p, its triangle angle's ``phi_<p>``."""
    return f"tet_{p}", f"Theta_k1_{p}", f"phi_{p}"


# ----------------------------------------------------------------------
# 6j asymptotics
# ----------------------------------------------------------------------

def pr_6j(spins):
    """Oscillatory 6j asymptotics cos(S_R + pi/4)/sqrt(12 pi V) for six
    large spins in the standard layout {a b c; d e f}."""
    diag = AsymDiagnostics()
    tet = _oscillatory_tet(_nonnegative([HalfInt(j).twice for j in spins]), None, diag)
    value = math.cos(tet._action + QUARTER_PI) / math.sqrt(12.0 * math.pi * tet._volume)
    return value, diag


def edmonds_6j(a, b, c, m, n, f) -> float:
    """One-small-spin 6j asymptotics for {a b c; b+m a+n f}:
    (-1)^(a+b+c+f+m) d^(f)_{mn}(phi_ab) / sqrt(d_a d_b),
    with phi_ab the angle between the a and b edges of the triangle
    (a, b, c), edge lengths l = j + 1/2.
    """
    ta, tb, tc, tf, tm, tn = [HalfInt(x).twice for x in (a, b, c, f, m, n)]
    _nonnegative([ta, tb, tc, tb + tm, ta + tn, tf])
    for tp in (tm, tn):
        if not projection_twice_ok(tp, tf):
            raise InvalidProjection(f"projection {HalfInt.from_twice(tp)} invalid for small "
                                    f"spin {HalfInt.from_twice(tf)}")
    phi = _spin_angle(ta, tb, tc)
    phase = _twice_phase(ta + tb + tc + tf + tm, "edmonds phase a+b+c+f+m")
    return phase * _small_d(tf, tm, tn, phi) / math.sqrt((ta + 1) * (tb + 1))


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
        # a list such as ["j", 1] is stored as its tuple: hashable, and equal
        # to the marking written with one
        object.__setattr__(self, "small_jk", (row, idx))
        object.__setattr__(self, "small_l", frozenset(int(i) for i in self.small_l))

    def normalized_shift(self, n: int) -> int:
        row, idx = self.small_jk
        if idx > n:
            raise ValueError(f"index {idx} out of range for n={n}")
        return (idx - 1) + (n if row == "k" else 0)


#: The marking with the small spin at j1 and no small l.
_J1_SMALL = SmallSpinMarking(("j", 1))


def normalize_marking(sym: Symbol3nj, mark: SmallSpinMarking):
    """Rotate the symbol (a symmetry) so the small j/k spin sits at j1.

    Returns (rotated symbol, small-l index set in the rotated labels).
    Indices outside 1..n are passed through unmapped, so the hypothesis
    check rejects them under every marking.
    """
    n = sym.n
    shift = mark.normalized_shift(n)
    if shift == 0:
        return sym, mark.small_l
    rotated = sym.rotated(shift)
    ls = shift % n
    small_l = frozenset(((m - 1 - ls) % n) + 1 if 1 <= m <= n else m
                        for m in mark.small_l)
    return rotated, small_l


def validate_hypotheses(sym: Symbol3nj, mark: SmallSpinMarking):
    """Check the marking against the applicability conditions of the
    mixed-spin asymptotics.

    Returns a list of :class:`Violation`; empty means ok.  Error-grade: a
    small l adjacent to the small j/k spin (two small spins in one
    decomposition 6j) or outside 1..n.  Warning-grade: doubtful scale
    separation.  The oscillatory tetrahedra are not checked here: the
    formulas raise NotClassicallyAllowed on a forbidden one and flag a
    near-caustic one ``near_caustic:tet_<p>``, and
    :func:`oscillatory_tetrahedra` lists them.
    """
    nsym, small_l = normalize_marking(sym, mark)
    return _violations(*_twice_rows(nsym), small_l)


def _twice_rows(sym: Symbol3nj) -> tuple:
    """The rows j, k, l of ``sym`` as lists of twice spins."""
    return [x.twice for x in sym.j], [x.twice for x in sym.k], [x.twice for x in sym.l]


def _violations(j: list, k: list, l: list, small_l) -> list:
    """:func:`validate_hypotheses` on the twice rows of a normalized
    symbol."""
    n = len(j)
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
    declared = [j[0]] + [l[m - 1] for m in small_l if 1 <= m <= n]
    undeclared = j[1:] + k + [t for m, t in enumerate(l, 1) if m not in small_l]
    return out + _scale_violations(declared, undeclared)


def _scale_violations(declared: list, undeclared: list) -> list:
    """Warnings when a declared small spin exceeds DEFAULT_SMALL_RATIO of
    the median undeclared spin, or an undeclared spin is under half the
    largest declared one (and of 1/2), from twice spins; the spins in
    the messages are the floats t / 2."""
    if not undeclared:
        return []
    med = sorted(undeclared)[len(undeclared) // 2]
    if med <= 0:
        return []
    # (t / 2) / (med / 2) and t / med round the same quotient
    out = [
        Violation("scale_ratio", "warning",
                  f"declared small spin {t / 2} is {t / med:.2f} of the median "
                  f"large spin {med / 2}")
        for t in declared if t / med > DEFAULT_SMALL_RATIO
    ]
    # t / 2 < 0.5 * max(declared / 2 + [1/2]), in twice spins
    limit = max(max(declared), 1)
    out += [
        Violation("undeclared_small", "warning",
                  f"undeclared spin {t / 2} is comparable to the declared small spins")
        for t in undeclared if 2 * t < limit
    ]
    return out


def oscillatory_tetrahedra(sym: Symbol3nj, mark: SmallSpinMarking) -> dict:
    """The oscillatory tetrahedra of a chain symbol under a marking.

    Maps each index p of an all-large decomposition 6j
    {j_p k_p x; k_{p+1} j_{p+1} l_p} at x = k1 of the normalized symbol
    (see :func:`normalize_marking`) to its tetrahedron, or to None when
    its edge lengths do not close into one.
    """
    nsym, small_l = normalize_marking(sym, mark)
    out = {}
    for p, twice in _chain_tets(*_twice_rows(nsym), small_l):
        try:
            out[p] = Tetrahedron._from_twice(twice)
        except DegenerateTriangle:
            out[p] = None
    return out


def _chain_tets(j: list, k: list, l: list, small_l) -> list:
    """[(p, twice spins of the decomposition 6j {j_p k_p k1; k_{p+1}
    j_{p+1} l_p})] for the all-large p = 2..n-1, those not in small_l."""
    k1 = k[0]
    return [(p, (j[p - 1], k[p - 1], k1, k[p], j[p], l[p - 1]))
            for p in range(2, len(j)) if p not in small_l]


class _Chain(NamedTuple):
    """A chain symbol prepared for its mixed-spin asymptotics, in twice
    spins."""

    j: list               # rows of the normalized symbol, whose small j/k
    k: list               # spin is j[0]
    l: list
    small_l: frozenset
    mu: int               # j2 - l1
    nu: int               # k_n - l_n
    etas: dict            # m -> j_{m+1} - j_m, per small l_m
    kappas: dict          # m -> k_{m+1} - k_m, per small l_m
    volumes: dict         # p -> volume of the oscillatory tetrahedron
    actions: dict         # p -> its Regge action
    thetas: dict          # p -> its internal dihedral at the k1 edge


def _chain_prep(sym: Symbol3nj, mark: SmallSpinMarking, diag: AsymDiagnostics,
                check_hypotheses: bool = False):
    """The set-up shared by the chain asymptotics.

    Normalizes the marking and, with ``check_hypotheses``, checks it as
    :func:`validate_hypotheses` does: HypothesisViolation on an error,
    warnings into ``diag``.  Returns None, flagging ``invalid_symbol``, when
    a projection offset is out of range and the symbol vanishes.  Otherwise
    returns a :class:`_Chain`; every oscillatory tetrahedron is built,
    checked and recorded by :func:`_oscillatory_tet`.
    """
    nsym, small_l = normalize_marking(sym, mark)
    j, k, l = _twice_rows(nsym)
    _nonnegative(j + k + l)
    violations = _violations(j, k, l, small_l) if check_hypotheses else None
    if violations:
        hard = [v for v in violations if v.severity == "error"]
        if hard:
            raise HypothesisViolation("marking violates applicability conditions", hard)
        diag.warnings.extend(v.message for v in violations if v.severity == "warning")

    # projections m of spin s need |m| <= s and s - m an integer
    j1, mu, nu = j[0], j[1] - l[0], k[-1] - l[-1]
    if abs(mu) > j1 or (j1 - mu) % 2 or abs(nu) > j1 or (j1 - nu) % 2:
        diag.flags.append("invalid_symbol")
        return None
    etas, kappas = {}, {}
    for m in sorted(small_l):
        eta, kappa, lm = j[m] - j[m - 1], k[m] - k[m - 1], l[m - 1]
        if abs(eta) > lm or (lm - eta) % 2 or abs(kappa) > lm or (lm - kappa) % 2:
            diag.flags.append("invalid_symbol")
            return None
        etas[m], kappas[m] = eta, kappa

    volumes, actions, thetas = {}, {}, {}
    for p, twice in _chain_tets(j, k, l, small_l):
        tet = _oscillatory_tet(twice, p, diag)
        # allowed, so every angle is defined; the k1 edge is c
        volumes[p], actions[p], thetas[p] = tet._volume, tet._action, tet._thetas[2]
    return _Chain(j, k, l, small_l, mu, nu, etas, kappas, volumes, actions, thetas)


def _end_triangles(chain: _Chain, end1: int, endn: int):
    """Edge lengths of the triangles (k1, end1, k2) and (k1, endn, j_n)
    that the sign-configuration sum glues along k1, from twice spins."""
    lk1 = chain.k[0] / 2.0 + 0.5
    return (
        (lk1, end1 / 2.0 + 0.5, chain.k[1] / 2.0 + 0.5),
        (lk1, endn / 2.0 + 0.5, chain.j[-1] / 2.0 + 0.5),
    )


def _spin_angle(ta: int, tb: int, tc: int) -> float:
    """Angle between the edges of twice spins ta and tb in the triangle
    (ta, tb, tc), with edge lengths t/2 + 1/2."""
    return triangle_angle(ta / 2.0 + 0.5, tb / 2.0 + 0.5, tc / 2.0 + 0.5)


def _small_l_factor(chain: _Chain, diag: AsymDiagnostics) -> float:
    """Product over the small l_m of d^(l_m)_{kappa_m eta_m}(phi_m) /
    sqrt(d_{j_m} d_{k_m}), phi_m the angle between the j_m and k_m edges of
    the triangle (j_m, k_m, k1)."""
    j, k, l = chain.j, chain.k, chain.l
    factor = 1.0
    for m in sorted(chain.small_l):
        phi_m = _spin_angle(j[m - 1], k[m - 1], k[0])
        diag.angles[_index_keys(m)[2]] = phi_m
        factor *= _small_d(l[m - 1], chain.kappas[m], chain.etas[m], phi_m) / math.sqrt(
            (j[m - 1] + 1) * (k[m - 1] + 1)
        )
    return factor


def asym_3nj(sym: Symbol3nj, mark: SmallSpinMarking):
    """General mixed-spin asymptotics of a first-kind 3nj symbol.

    One oscillatory tetrahedron per all-large decomposition 6j, one
    small-d factor per marked small l, and a sum over the sign
    configurations, each with its own glued secondary tetrahedron and
    residual phase; the end spins are (l1, l_n).
    """
    diag = AsymDiagnostics()
    chain = _chain_prep(sym, mark, diag, check_hypotheses=True)
    if chain is None:
        return 0.0, diag
    return _chain_value(chain, diag, chain.l[0], chain.l[-1]), diag


def _chain_value(chain: _Chain, diag: AsymDiagnostics, end1: int, endn: int) -> float:
    """The sign-configuration sum of a prepared chain, with end triangles
    (k1, end1, k2) and (k1, endn, j_n) and amplitude 1/sqrt(d_end1 d_endn),
    the ends as twice spins.

    A configuration sigma and its flip -sigma contribute equally, so only
    those with sigma_1 = +1 are summed and each counts twice; with no
    oscillatory tetrahedron the one empty configuration is summed once.
    Either way the amplitude's 1/2^P becomes 1/(number summed).
    """
    mu, nu, j1 = chain.mu, chain.nu, chain.j[0]
    m_count = len(chain.small_l)
    p_set = list(chain.volumes)

    tri1, trin = _end_triangles(chain, end1, endn)
    phi1, phin = triangle_angle(*tri1), triangle_angle(*trin)
    angles = diag.angles
    angles["phi1"] = phi1
    angles["phin"] = phin
    theta_list = [math.pi - chain.thetas[p] for p in p_set]
    for p, th in zip(p_set, theta_list):
        angles[_index_keys(p)[1]] = th
    phases = [chain.actions[p] + QUARTER_PI for p in p_set]
    small_factor = _small_l_factor(chain, diag)

    sigmas = _half_configs(len(p_set))
    n = len(chain.j)
    mu_f, nu_f, j1_f = mu / 2.0, nu / 2.0, j1 / 2.0
    n_pi, j1_pi = (n + m_count) * math.pi, math.pi * (n + m_count) * j1_f
    # every configuration glues the same two end triangles: their apex
    # trigonometry is taken once, and so are the terms of
    # law_of_cosines(tri1[1], trin[1], phi_mid), the glued sixth edge
    c1, s1, cn, sn = math.cos(phi1), math.sin(phi1), math.cos(phin), math.sin(phin)
    la, lb = tri1[1], trin[1]
    edge_diff2, edge_prod4 = (la - lb) ** 2, 4.0 * la * lb
    sign_configs = diag.sign_configs
    config_sum = 0.0
    for sigma in sigmas:
        omega, case_id, theta_k1, boundary = _classify_omega(n_pi - sum(map(mul, sigma, theta_list)))
        theta_l1, phi_mid, theta_ln = _glued_vertex(c1, s1, cn, sn, theta_k1)
        f_val = _residual_phase(case_id, mu_f * theta_l1 + nu_f * theta_ln, j1_f)
        argument = sum(map(mul, sigma, phases)) + j1_pi + f_val
        config_sum += math.cos(argument) * _small_d(j1, mu, nu, phi_mid)
        sign_configs.append(
            {
                "sigma": sigma,
                "omega": omega,
                "case": case_id,
                "theta_k1": theta_k1,
                "theta_l1": theta_l1,
                "phi_l1_ln": phi_mid,
                "theta_ln": theta_ln,
                "f": f_val,
                "boundary": boundary,
                "glued_sixth_edge": math.sqrt(
                    edge_diff2 + edge_prod4 * math.sin(phi_mid / 2.0) ** 2),
            }
        )

    amplitude = small_factor / (len(sigmas) * math.sqrt((end1 + 1) * (endn + 1)))
    for p in p_set:
        amplitude /= math.sqrt(12.0 * math.pi * chain.volumes[p])
    return _chain_sign(chain) * (amplitude * config_sum)


@cache
def _half_configs(count: int) -> tuple:
    """The sign configurations of ``count`` oscillatory factors with
    sigma_1 = +1 (the one empty configuration for none), made once per
    count.  Each is valid, so :func:`_chain_value` classifies it as
    omega_classify does, without its checks or a SignConfig."""
    return tuple(sigma for sigma in product((1, -1), repeat=count) if sigma[:1] != (-1,))


def asym_9j_one_small(sym: Symbol9j):
    """Asymptotics of a 9j symbol with a single small spin in the s slot.

    (-1)^R times the chain driver on :meth:`Symbol9j.as_chain`, whose one
    oscillatory tetrahedron is the 6j {j1 j5 j24; j34 j2 j12}, with the end
    spins (j2, k3) of the chain, the 9j's j1 and j34.  An invalid symbol
    is 0, flagged ``invalid_symbol``.
    """
    diag = AsymDiagnostics()
    if not sym.is_valid():
        # a valid triad has no negative spin, so only here can one be
        _nonnegative([x.twice for row in sym.grid for x in row])
        diag.flags.append("invalid_symbol")
        return 0.0, diag
    chain = _chain_prep(sym.as_chain(), _J1_SMALL, diag, check_hypotheses=True)
    value = _chain_value(chain, diag, chain.j[1], chain.k[-1])
    # the chain's three rows hold the nine spins of the 9j
    return _twice_phase(sum(chain.j) + sum(chain.k) + sum(chain.l), "9j phase R") * value, diag


def _chain_sign(chain: _Chain) -> int:
    """Global sign (-1)**e of the mixed-spin formula, e (an integer on valid
    symbols) = R_n + (n+M-1)(k1+j1) + (mu-j1) + (k1+k2+l1) + (k1+jn+ln)
    + sum_m (j_m + l_m + k_{m+1})."""
    j, k, l, small_l = chain.j, chain.k, chain.l, chain.small_l
    n = len(j)
    twice = (sum(j) + sum(k) + sum(l) + (k[0] + j[0]) * (n + len(small_l) - 1)
             + chain.mu - j[0] + k[0] + k[1] + l[0] + k[0] + j[n - 1] + l[n - 1])
    for m in small_l:
        twice += j[m - 1] + l[m - 1] + k[m]
    return _twice_phase(twice, "chain sign exponent")


def _twice_phase(twice: int, context: str) -> int:
    """(-1)**e for the exponent e = twice / 2; InternalConsistencyError
    when e is not an integer."""
    if twice % 2:
        raise InternalConsistencyError(
            f"{context}: exponent {HalfInt.from_twice(twice)} is not an integer")
    return -1 if twice % 4 else 1


# ----------------------------------------------------------------------
# 15j special cases (15j-1 is a driver case; 15j-2..4 are closed forms that
# share only the set-up with asym_3nj)
# ----------------------------------------------------------------------

def _closed_15j_prep(name: str, sym: Symbol3nj, mark: SmallSpinMarking):
    """The prologue of the 15j form ``name``: ValueError unless the
    symbol has n = 5 and ``mark`` is the marking the form is written for
    (see :data:`CLOSED_15J_FORMS`); then fresh diagnostics and
    :func:`_chain_prep`.  Returns (chain or None, diag)."""
    if sym.n != 5:
        raise ValueError("15j wrappers need n = 5")
    expected = CLOSED_15J_FORMS[name][1]
    if (mark.__class__ is not SmallSpinMarking or mark.small_jk != expected.small_jk
            or mark.small_l != expected.small_l):
        raise ValueError(
            f"{name} expects the small spin at j1 and small l indices "
            f"{sorted(expected.small_l)} (normalize first)"
        )
    diag = AsymDiagnostics()
    return _chain_prep(sym, mark, diag), diag


def asym_15j_four_small(sym: Symbol3nj, mark: SmallSpinMarking):
    """15j with j1, l2, l3, l4 small: all decomposition 6js carry one small
    spin, no oscillation survives, and every relevant triangle degenerates
    to (j2, k2, k1)."""
    chain, diag = _closed_15j_prep("15j-4", sym, mark)
    if chain is None:
        return 0.0, diag
    mu, nu, etas, kappas = chain.mu, chain.nu, chain.etas, chain.kappas
    j, k, l = chain.j, chain.k, chain.l
    phi2 = _spin_angle(j[1], k[1], k[0])
    diag.angles["phi2"] = phi2
    value = 1.0 / ((j[1] + 1) ** 2 * (k[1] + 1) ** 2)
    for m in (2, 3, 4):
        value *= _small_d(l[m - 1], kappas[m], etas[m], phi2)
    value *= _small_d(j[0], mu, -nu, phi2)
    return value, diag


def asym_15j_three_small(sym: Symbol3nj, mark: SmallSpinMarking):
    """15j with j1, l2, l3 small: one oscillatory tetrahedron (p = 4); the
    secondary tetrahedron glues its faces at k1 with the external dihedral
    as the new internal angle."""
    chain, diag = _closed_15j_prep("15j-3", sym, mark)
    if chain is None:
        return 0.0, diag
    mu, nu, etas, kappas = chain.mu, chain.nu, chain.etas, chain.kappas
    j, k, l = chain.j, chain.k, chain.l

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
    phase = _twice_phase(k[0] + j[3] + l[3] + k[4] + 2 * j[0] + mu, "three-small phase")
    dj2, dk2, dk5 = j[1] + 1, k[1] + 1, k[4] + 1
    value = (
        phase
        / (dj2 * dk2 * math.sqrt(12.0 * math.pi * vol4 * dj2 * dk5))
        * _small_d(l[1], kappas[2], etas[2], phi2)
        * _small_d(l[2], kappas[3], etas[3], phi2)
        * _small_d(j[0], mu, nu, phi_mid)
        * math.cos(
            action4 + QUARTER_PI - (mu / 2.0) * theta_j4 - (nu / 2.0) * theta_k5
            + math.pi * (j[0] / 2.0)
        )
    )
    return value, diag


def asym_15j_two_small(sym: Symbol3nj, mark: SmallSpinMarking):
    """15j with j1, l2 small: two oscillatory tetrahedra (p = 3, 4), two
    distinct sign configurations.  Assumes the combined gluing angles stay
    in [0, pi] (near-regular tetrahedra); raises CaseAngleOutOfRange
    otherwise, in which case the general driver applies."""
    chain, diag = _closed_15j_prep("15j-2", sym, mark)
    if chain is None:
        return 0.0, diag
    mu, nu, etas, kappas = chain.mu, chain.nu, chain.etas, chain.kappas
    j, k, l = chain.j, chain.k, chain.l

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
    # both angles are in [0, pi]; the apex trigonometry is taken once
    trig = math.cos(phi_a), math.sin(phi_a), math.cos(phi_b), math.sin(phi_b)
    theta_j3_pp, mid_pp, theta_k5_pp = _glued_vertex(*trig, theta_pp)
    theta_j3_pm, mid_pm, theta_k5_pm = _glued_vertex(*trig, theta_pm)
    diag.angles.update(
        {"phi_a": phi_a, "phi_b": phi_b, "theta3": theta3, "theta4": theta4,
         "theta_pp": theta_pp, "theta_pm": theta_pm,
         "phi_j3_k5_pp": mid_pp, "phi_j3_k5_pm": mid_pm}
    )

    phi2 = _spin_angle(j[1], k[1], k[0])
    phase = _twice_phase(j[2] + l[2] + j[3] + k[3] + l[3] + k[4] + j[0] + mu + 2 * k[0],
                         "two-small phase")
    wrap = -1.0 if j[0] % 2 else 1.0
    mu_f, nu_f = mu / 2.0, nu / 2.0
    bracket = (
        -_small_d(j[0], mu, nu, mid_pp)
        * math.sin(action3 + action4 - mu_f * theta_j3_pp - nu_f * theta_k5_pp)
        + wrap
        * _small_d(j[0], mu, nu, mid_pm)
        * math.cos(action_diff - mu_f * theta_j3_pm - nu_f * theta_k5_pm)
    )
    value = (
        phase
        / (24.0 * math.pi * (j[2] + 1) * math.sqrt((k[2] + 1) * (k[4] + 1) * vol3 * vol4))
        * _small_d(l[1], kappas[2], etas[2], phi2)
        * bracket
    )
    return value, diag


def asym_15j_one_small(sym: Symbol3nj, mark: SmallSpinMarking):
    """15j with only j1 small: the chain driver with end spins (j2, k5),
    three oscillatory tetrahedra (p = 2, 3, 4) and four distinct sign
    configurations.  Assumes the gluing angles combined from the three
    internal dihedrals at k1 stay in [0, pi] (near-regular tetrahedra);
    raises CaseAngleOutOfRange otherwise, in which case ``asym_3nj``
    applies."""
    chain, diag = _closed_15j_prep("15j-1", sym, mark)
    if chain is None:
        return 0.0, diag
    t2, t3, t4 = chain.thetas[2], chain.thetas[3], chain.thetas[4]
    for name, theta in (("ppp", t2 + t3 + t4 - math.pi), ("ppm", math.pi - t2 - t3 + t4),
                        ("pmp", math.pi - t2 + t3 - t4), ("mpp", math.pi + t2 - t3 - t4)):
        if theta < -1e-12 or theta > math.pi + 1e-12:
            raise CaseAngleOutOfRange(
                f"combined angle {name} = {theta:.4f} outside [0, pi]: outside "
                f"the near-regular regime; use the general mixed-spin driver"
            )
    return _chain_value(chain, diag, chain.j[1], chain.k[-1]), diag


#: The closed 15j forms by name, each with the only marking it accepts
#: (small spin at j1); the CLI and the sweep harness both read this table.
CLOSED_15J_FORMS = {
    "15j-1": (asym_15j_one_small, _J1_SMALL),
    "15j-2": (asym_15j_two_small, SmallSpinMarking(("j", 1), {2})),
    "15j-3": (asym_15j_three_small, SmallSpinMarking(("j", 1), {2, 3})),
    "15j-4": (asym_15j_four_small, SmallSpinMarking(("j", 1), {2, 3, 4})),
}
