"""Wigner small-d matrix elements.

Convention: d^(s)_{mu nu}(beta) = <s,mu| exp(-i beta sigma_y / 2) |s,nu>
with sigma_y = [[0, -i], [i, 0]], so d^(1/2)(beta) =
[[cos b/2, -sin b/2], [sin b/2, cos b/2]].  The sum formula uses
exact-rational binomial prefactors (via the factorial ledger) and floating
trigonometric powers, which stays well-conditioned up to s ~ 50.
"""

from __future__ import annotations

import math
from functools import cache

from .errors import InvalidProjection
from .halfint import HalfInt, projection_ok
from .primefac import DEFAULT_LEDGER
from .sqrtrat import SqrtRational


def _check_projections(s: HalfInt, mu: HalfInt, nu: HalfInt) -> None:
    for m in (mu, nu):
        if not projection_ok(m, s):
            raise InvalidProjection(f"projection {m} invalid for spin {s}")


@cache
def _d_coefficients(ts: int, tmu: int, tnu: int):
    """[(cos_power, sin_power, coefficient)] for the small-d sum formula."""
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
        coeff = float(SqrtRational(sign, rat, rad))
        cos_pow = ts - mu_minus_nu - 2 * k
        sin_pow = mu_minus_nu + 2 * k
        out.append((cos_pow, sin_pow, coeff))
    return out


def small_d(s, mu, nu, beta: float) -> float:
    """d^(s)_{mu nu}(beta), real, for any real angle beta."""
    s, mu, nu = HalfInt(s), HalfInt(mu), HalfInt(nu)
    _check_projections(s, mu, nu)
    return _small_d(s.twice, mu.twice, nu.twice, beta)


def _small_d(ts: int, tmu: int, tnu: int, beta: float) -> float:
    """:func:`small_d` on twice values whose projections the caller has
    already checked."""
    c = math.cos(beta / 2.0)
    z = math.sin(beta / 2.0)
    total = 0.0
    for cos_pow, sin_pow, coeff in _d_coefficients(ts, tmu, tnu):
        total += coeff * c ** cos_pow * z ** sin_pow
    return total

