"""Exact 9j, 15j and general 3nj: reductions, symmetries, identities."""

from __future__ import annotations

import random

import mpmath
import pytest

from wigner_asym.errors import InternalConsistencyError
from wigner_asym.exact import (
    PIVOTS,
    Symbol3nj,
    Symbol9j,
    _sum_chain_terms,
    wigner6j,
    wigner9j,
    wigner15j,
    wigner3nj,
)
from wigner_asym.halfint import HalfInt
from wigner_asym.sqrtrat import SqrtRational
from wigner_asym.identities import (
    orthogonality_defect,
    pentagon_mismatches,
    random_orthogonality_instance,
    random_valid_9j,
    random_valid_chain,
)

from conftest import to_mpf

H = HalfInt.from_twice


def mpf_close(a, b, tol_exp=-35, scale=None):
    scale = scale if scale is not None else max(abs(a), abs(b), mpmath.mpf(10) ** -20)
    return abs(a - b) < mpmath.mpf(10) ** tol_exp * scale


def test_9j_zero_spin_reduction_frozen():
    with mpmath.workdps(50):
        res = wigner9j(Symbol9j.from_values(1, 1, 1, 1, 1, 1, 1, 1, 0))
        assert abs(to_mpf(res.value) - mpmath.mpf(1) / 18) < mpmath.mpf(10) ** -45
        # general reduction {a b c; d e f; g h 0} =
        # delta_cf delta_gh (-1)^(b+c+d+g) {a b c; e d g} / sqrt(d_c d_g)
        rng = random.Random(7)
        done = 0
        while done < 10:
            sym = random_valid_9j(rng, tmax=10)
            sym0 = Symbol9j(sym.j1, sym.j2, sym.j12, sym.s, sym.j4, sym.j12,
                            sym.j13, sym.j13, HalfInt(0))
            if not sym0.is_valid():
                continue
            lhs = to_mpf(wigner9j(sym0).value)
            phase_t = (sym.j2 + sym.j12 + sym.s + sym.j13).twice
            if phase_t % 2:
                continue
            sign = -1 if (phase_t // 2) % 2 else 1
            rhs = sign * to_mpf(wigner6j(
                sym0.j1, sym0.j2, sym0.j12, sym0.j4, sym0.s, sym0.j13
            )) / mpmath.sqrt(sym0.j12.dim * sym0.j13.dim)
            assert mpf_close(lhs, rhs), (sym0, lhs, rhs)
            done += 1


def test_9j_pivot_invariance_spot():
    with mpmath.workdps(50):
        sym = Symbol9j.from_values(5, 4, 3, 2, 3, 4, 4, 5, 2)
        vals = [wigner9j(sym, pivot=p).value for p in PIVOTS]
        for v in vals[1:]:
            assert v == vals[0]
        # the documented alias for the fourth decomposition
        assert wigner9j(sym, pivot="j34").value == vals[0]
        with pytest.raises(ValueError):
            wigner9j(sym, pivot="nope")


def test_9j_exact_zero_for_every_pivot():
    # {60 60 60; 60 60 60; 60 60 59} vanishes exactly; a floating-point
    # accumulation of its 61 terms leaves residues of order 1e-71
    sym = Symbol9j.from_values(60, 60, 60, 60, 60, 60, 60, 60, 59)
    for p in PIVOTS:
        assert wigner9j(sym, pivot=p).value == SqrtRational.zero(), p


def test_chain_sum_rejects_mixed_radicands():
    terms = [SqrtRational(1, 1, 2), SqrtRational(1, 1, 3)]
    with pytest.raises(InternalConsistencyError):
        _sum_chain_terms(terms)
    assert _sum_chain_terms([SqrtRational.zero(), SqrtRational(1, 1, 3)]) == SqrtRational(1, 1, 3)
    assert _sum_chain_terms([SqrtRational(1, 1, 2), SqrtRational(-1, 1, 2)]) == SqrtRational.zero()


def test_9j_matches_sympy_oracle():
    """Exact equality with sympy.physics.wigner on random small 9j symbols,
    half-integer spins included."""
    wigner = pytest.importorskip("sympy.physics.wigner")
    import sympy

    def half(h):
        return sympy.Rational(h.twice, 2)

    rng = random.Random(59)
    for _ in range(30):
        sym = random_valid_9j(rng, tmax=7)
        ours = wigner9j(sym).value
        theirs = wigner.wigner_9j(*(half(getattr(sym, s)) for s in
                                    ("j1", "j2", "j12", "s", "j4", "j34", "j13", "j24", "j5")),
                                  prec=None)
        expect = (ours.sign * sympy.Rational(ours.rat.numerator, ours.rat.denominator)
                  * sympy.sqrt(int(ours.rad)))
        assert theirs == expect, (sym, ours, theirs)


def test_9j_term_trace_sums_to_value():
    with mpmath.workdps(40):
        sym = Symbol9j.from_values(5, 4, 3, 2, 3, 4, 4, 5, 2)
        res = wigner9j(sym, pivot="j2")
        assert mpf_close(sum(to_mpf(t) for _, t in res.terms), to_mpf(res.value), -35)
        assert res.pivot == "j2"
        assert len(res.terms) >= 2


def test_9j_classical_symmetries():
    # transpose invariance; odd column swap flips by (-1)^R
    with mpmath.workdps(45):
        rng = random.Random(13)
        for _ in range(6):
            sym = random_valid_9j(rng, tmax=14)
            g = sym.grid
            transpose = Symbol9j(*(g[i][j] for j in range(3) for i in range(3)))
            v = wigner9j(sym).value
            vt = wigner9j(transpose).value
            assert v == vt
            swapped = Symbol9j(g[0][1], g[0][0], g[0][2],
                               g[1][1], g[1][0], g[1][2],
                               g[2][1], g[2][0], g[2][2])
            r_twice = sym.r_total().twice
            sign = -1 if (r_twice // 2) % 2 else 1
            vs = wigner9j(swapped).value
            assert vs == sign * v


def test_9j_fig4d_symbol_finite_and_pivot_stable():
    with mpmath.workdps(50):
        sym = Symbol9j.from_values("51/2", "53/2", 28, "1/2", "47/2", 24, 25, 27, 25)
        vals = [wigner9j(sym, pivot=p).value for p in PIVOTS]
        assert not vals[0].is_zero
        for v in vals[1:]:
            assert v == vals[0]


def test_9j_rewritten_decomposition_matches():
    """The constant-phase, offset-indexed form of the j24 decomposition
    equals the standard chain sum (terms outside the narrow window vanish
    identically)."""
    with mpmath.workdps(45):
        for values in ((5, 4, 3, 2, 3, 4, 4, 5, 2),
                       ("51/2", "53/2", 28, "1/2", "47/2", 24, 25, 27, 25)):
            sym = Symbol9j.from_values(*values)
            assert sym.is_valid()
            s, j24 = sym.s, sym.j24
            mu = sym.j13 - sym.j1
            nu = sym.j34 - sym.j4
            total = mpmath.mpf(0)
            phase_t = (2 * j24 + 2 * s).twice
            const_sign = -1 if (phase_t // 2) % 2 else 1
            for txi in range(-s.twice, s.twice + 1, 2):
                x = j24 + HalfInt.from_twice(txi)
                if x.twice < 0:
                    continue
                prod = wigner6j(sym.s, sym.j4, sym.j34, sym.j2, x, sym.j24)
                prod = prod * wigner6j(sym.j13, sym.j24, sym.j5, x, sym.j1, sym.s)
                prod = prod * wigner6j(sym.j1, sym.j2, sym.j12, sym.j34, sym.j5, x)
                total += const_sign * x.dim * to_mpf(prod)
            ref = to_mpf(wigner9j(sym, pivot="j24").value)
            assert mpf_close(total, ref, -35)


def test_15j_zero_l_collapse():
    with mpmath.workdps(40):
        for twice_j in (2, 3, 8):
            j = H(twice_j)
            val = wigner15j([j] * 5, [j] * 5, [HalfInt(0)] * 5)
            expect = mpmath.mpf((-1) ** twice_j) / (twice_j + 1) ** 4
            assert mpf_close(to_mpf(val), expect, -35)


def test_15j_symmetries():
    with mpmath.workdps(45):
        rng = random.Random(3)
        for _ in range(4):
            sym = random_valid_chain(rng, 5, tmax=8)
            v = wigner15j(sym.j, sym.k, sym.l)
            for shift in (1, 3, 5, 7):
                rot = sym.rotated(shift)
                w = wigner15j(rot.j, rot.k, rot.l)
                assert w == v, shift
            ex = sym.rows_exchanged()
            assert wigner15j(ex.j, ex.k, ex.l) == v


def test_3nj_matches_15j_and_rotations():
    with mpmath.workdps(45):
        rng = random.Random(23)
        for _ in range(6):
            sym = random_valid_chain(rng, 5, tmax=10)
            a = wigner3nj(sym)
            b = wigner15j(sym.j, sym.k, sym.l)
            assert a == b
            c = wigner3nj(sym.rotated(2))
            assert c == a


def test_12j_zero_l_reduces_to_9j():
    """n = 4 with l4 = 0 forces k1 = j4, j1 = k4; the chain collapses to a
    9j symbol with a known sign and normalization."""
    with mpmath.workdps(45):
        rng = random.Random(31)
        done = 0
        while done < 8:
            base = random_valid_chain(rng, 4, tmax=8)
            j, k, l = list(base.j), list(base.k), list(base.l)
            l[3] = HalfInt(0)
            k[0] = j[3]
            j[0] = k[3]
            try:
                sym = Symbol3nj(tuple(j), tuple(k), tuple(l))
            except ValueError:
                continue
            if not sym.is_valid():
                continue
            lhs = to_mpf(wigner3nj(sym))
            # surviving 3-cycle = 9j with grid {j2 j3 l2; j1 l3 k3; l1 k1 k2};
            # the dropped 6j contributes (-1)^(j4+k4+x)/sqrt(d_j4 d_k4) and the
            # leftover phases combine to (-1)^(R_4 + j4 + k4 + 2j1 + 2k1)
            nine = Symbol9j(sym.j[1], sym.j[2], sym.l[1],
                            sym.j[0], sym.l[2], sym.k[2],
                            sym.l[0], sym.k[0], sym.k[1])
            exp_t = (sym.r_total() + sym.j[3] + sym.k[3]
                     + 2 * sym.j[0] + 2 * sym.k[0]).twice
            assert exp_t % 2 == 0
            sign = -1 if (exp_t // 2) % 2 else 1
            rhs = sign * to_mpf(wigner9j(nine).value) / mpmath.sqrt(sym.j[3].dim * sym.k[3].dim)
            assert mpf_close(lhs, rhs, -30), (sym, lhs, rhs)
            done += 1


def test_3nj_empty_window_is_zero():
    # j/k windows with mismatched parity: exact zero
    sym = Symbol3nj((H(1), H(2), H(2)), (H(2), H(2), H(2)), (H(3), H(4), H(3)))
    assert not sym.is_valid() or wigner3nj(sym).is_zero


def test_pentagon_and_orthogonality_small():
    assert pentagon_mismatches(random.Random(41), 20, tmax=14) == 0
    rng = random.Random(43)
    for _ in range(20):
        inst = random_orthogonality_instance(rng, tmax=12)
        if inst is None:
            continue
        assert orthogonality_defect(*inst) == {}
