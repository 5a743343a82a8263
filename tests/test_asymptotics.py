"""Asymptotic formulas: oscillatory and one-small-spin 6j forms, the 9j
one-small formula, the general mixed-spin driver (two independent internal
routes), hypothesis validation, and the 15j special cases; the 9j and 15j-1
wrappers of the driver against their closed forms."""

from __future__ import annotations

import math
import random
import sys
from collections import Counter, defaultdict
from itertools import product

import mpmath
import numpy as np
import pytest

from wigner_asym.asymptotics import (
    SmallSpinMarking,
    Violation,
    asym_3nj,
    asym_9j_one_small,
    asym_15j_four_small,
    asym_15j_one_small,
    asym_15j_three_small,
    asym_15j_two_small,
    edmonds_6j,
    oscillatory_tetrahedra,
    pr_6j,
    validate_hypotheses,
)
from wigner_asym.errors import (
    CaseAngleOutOfRange,
    HypothesisViolation,
    InvalidProjection,
    NotClassicallyAllowed,
)
from wigner_asym.exact import Symbol3nj, Symbol9j, wigner6j, wigner9j, wigner15j
from wigner_asym.geometry import (
    Tetrahedron,
    euler_from_glued_triangles,
    f_phase,
    law_of_cosines,
    omega_classify,
    regge_action,
    volume,
)
from wigner_asym.halfint import HalfInt
from wigner_asym.wigner_d import small_d

from conftest import sample_chain_15j, to_mpf
from oracles import asym_3nj_xi_sum, asym_9j_closed, asym_15j_one_small_closed

H = HalfInt.from_twice


def chain_sign(sym: Symbol9j) -> int:
    return -1 if (sym.r_total().twice // 2) % 2 else 1


# ----------------------------------------------------------------------
# 6j asymptotics
# ----------------------------------------------------------------------

def test_pr6j_regular_envelope_and_accuracy():
    spins = [50] * 6
    value, diag = pr_6j(spins)
    envelope = 1 / math.sqrt(12 * math.pi * (50.5) ** 3 / (6 * math.sqrt(2)))
    assert abs(diag.volumes["tet"] - (50.5) ** 3 / (6 * math.sqrt(2))) < 1e-9
    assert abs(value) <= envelope * (1 + 1e-12)
    with mpmath.workdps(40):
        exact = float(to_mpf(wigner6j(*(HalfInt(50),) * 6)))
    assert abs(exact - value) <= 0.15 * envelope


def test_pr6j_flat_input_rejected():
    # two long opposite edges: every face closes but no Euclidean embedding
    assert Tetrahedron.from_spins([8, 8, 12, 8, 8, 12]).status() == "forbidden"
    with pytest.raises(NotClassicallyAllowed):
        pr_6j([8, 8, 12, 8, 8, 12])


def test_pr6j_forbidden_inside_caustic_guard():
    # 288 V^2 = -4.5, closer to 0 than the guard 5.83: the sign decides
    twice = [17, 25, 41, 14, 38, 20]
    tet = Tetrahedron.from_spins([H(t) for t in twice])
    assert tet.cayley_menger() == -4.5 and -4.5 + tet.caustic_tolerance() > 0
    assert tet.status() == "forbidden"
    with pytest.raises(NotClassicallyAllowed) as err:
        pr_6j([H(t) for t in twice])
    assert err.value.determinant == -4.5


def test_pr6j_flat_tetrahedron_rejected():
    twice = [36, 11, 48, 6, 41, 4]
    tet = Tetrahedron.from_spins([H(t) for t in twice])
    assert tet.cayley_menger() == 0.0
    assert tet.status() == "near_caustic" and volume(tet) == 0.0
    with pytest.raises(NotClassicallyAllowed) as err:
        pr_6j([H(t) for t in twice])
    assert err.value.determinant == 0.0


def test_pr6j_near_caustic_is_flagged():
    # A needle (three spins <= 3/2, three near 99) is allowed with a
    # determinant inside the guard; a seeded search over spins <= 30 found
    # no such tetrahedron, a search over needles found many.
    twice = [1, 2, 3, 197, 198, 199]
    tet = Tetrahedron.from_spins([H(t) for t in twice])
    assert 0.0 < tet.cayley_menger() <= tet.caustic_tolerance()
    assert tet.status() == "near_caustic"
    value, diag = pr_6j([H(t) for t in twice])
    assert math.isfinite(value) and value != 0.0
    assert diag.flags == ["near_caustic:tet"]
    assert diag.volumes["tet"] == volume(tet) > 0.0


def test_edmonds_frozen_value():
    got = edmonds_6j(100, 100, 100, 0, 0, 1)
    assert abs(got - (-0.5 / 201)) < 1e-15
    # f = 0 reduces to the exact zero-spin value
    for a, b, c in ((40, 50, 60), (80, 85, 100)):
        got = edmonds_6j(a, b, c, 0, 0, 0)
        exact = float(wigner6j(a, b, c, b, a, 0))
        assert abs(got - exact) < 1e-12


def test_edmonds_vs_exact_sample():
    rng = random.Random(51)
    with mpmath.workdps(40):
        checked = 0
        while checked < 12:
            a = rng.randint(80, 120)
            b = rng.randint(80, 120)
            c = rng.randint(max(abs(a - b) + 2, 80), min(a + b - 2, 130))
            tf = rng.choice([1, 2, 3, 4])
            tm = rng.randrange(-tf, tf + 1, 2)
            tn = rng.randrange(-tf, tf + 1, 2)
            phi = (a + 0.5) ** 2 + (b + 0.5) ** 2 - (c + 0.5) ** 2
            if abs(phi / (2 * (a + 0.5) * (b + 0.5))) > 0.9:
                continue
            approx = edmonds_6j(a, b, c, H(tm), H(tn), H(tf))
            exact = float(to_mpf(
                wigner6j(HalfInt(a), HalfInt(b), HalfInt(c),
                         HalfInt(b) + H(tm), HalfInt(a) + H(tn), H(tf)))
            )
            assert abs(approx - exact) <= 0.02 * abs(exact), (a, b, c, tm, tn, tf)
            checked += 1


def test_edmonds_length_convention_switch():
    with pytest.raises(InvalidProjection, match="invalid for small spin 1/2"):
        edmonds_6j(90, 100, 110, 0, 0, HalfInt("1/2"))   # m = 0 has wrong parity


# ----------------------------------------------------------------------
# 9j one-small
# ----------------------------------------------------------------------

def test_asym_9j_zero_small_spin_reduces_to_oscillatory_form():
    sym = Symbol9j.from_twice(120, 124, 122, 0, 118, 118, 120, 120, 126)
    value, diag = asym_9j_one_small(sym)
    tet = Tetrahedron.from_spins((sym.j1, sym.j2, sym.j12, sym.j34, sym.j5, sym.j24))
    osc, _ = pr_6j((sym.j1, sym.j2, sym.j12, sym.j34, sym.j5, sym.j24))
    expected = osc / math.sqrt(sym.j1.dim * sym.j34.dim)
    assert abs(abs(value) - abs(expected)) < 1e-15 * max(1, abs(expected))
    with mpmath.workdps(40):
        exact = float(wigner9j(sym).value)
    assert abs(value - exact) < 0.05 * abs(exact)


def test_asym_9j_matches_exact_interior():
    with mpmath.workdps(50):
        for tj24 in (110, 120, 130):
            sym = Symbol9j.from_twice(860, 60, 860, 2, 120, 122, 862, tj24, 860)
            exact = float(wigner9j(sym).value)
            value, diag = asym_9j_one_small(sym)
            assert abs(value - exact) < 0.05 * max(abs(exact), 1e-9)
            assert diag.volumes["tet_2"] > 0


def test_asym_9j_invalid_and_forbidden():
    bad = Symbol9j.from_twice(860, 60, 860, 2, 120, 122, 866, 120, 860)
    value, diag = asym_9j_one_small(bad)
    assert value == 0.0 and "invalid_symbol" in diag.flags
    # the reference tetrahedron leaves the classically allowed region
    edge = Symbol9j.from_twice(210, 201, 215, 2, 120, 122, 212, 225, 99)
    assert edge.is_valid()
    with pytest.raises(NotClassicallyAllowed):
        asym_9j_one_small(edge)


def test_asym_9j_scale_separation_warning():
    sym = Symbol9j.from_twice(20, 16, 30, 8, 10, 14, 24, 24, 18)
    if sym.is_valid():
        try:
            value, diag = asym_9j_one_small(sym)
            assert diag.warnings
        except NotClassicallyAllowed:
            pass


# ----------------------------------------------------------------------
# the general driver: internal consistency and specializations
# ----------------------------------------------------------------------

def test_sigma_sum_equals_xi_sum_all_cases(rng):
    seen = set()
    for nsmall, small_l in ((0, frozenset()), (1, frozenset({2})),
                            (2, frozenset({2, 3})), (3, frozenset({2, 3, 4}))):
        for trial in range(6):
            t_small = rng.choice([1, 2, 3, 4])
            sym = sample_chain_15j(rng, base=40 + 2 * trial, t_small=t_small,
                                   nsmall_l=nsmall)
            mark = SmallSpinMarking(("j", 1), small_l)
            try:
                v_sigma, diag = asym_3nj(sym, mark)
                v_xi = asym_3nj_xi_sum(sym, mark)
            except (NotClassicallyAllowed, HypothesisViolation):
                continue
            seen.update(sc["case"] for sc in diag.sign_configs)
            scale = max(abs(v_sigma), abs(v_xi), 1e-300)
            assert abs(v_sigma - v_xi) / scale < 1e-10, (nsmall, trial)
    assert {"I", "II"} <= seen   # several omega branches exercised


def test_sigma_flip_pairs_contribute_equally(rng):
    """Globally flipping a sign configuration leaves its contribution to
    the configuration sum unchanged, so the driver sums only sigma_1 = +1.
    Each -sigma partner is built here from the driver's angles."""
    sym = sample_chain_15j(rng, base=45, t_small=2, nsmall_l=0)
    mark = SmallSpinMarking(("j", 1))
    value, diag = asym_3nj(sym, mark)
    sigmas = [tuple(sc["sigma"]) for sc in diag.sign_configs]
    assert sigmas == [s for s in product((1, -1), repeat=3) if s[0] == 1]
    actions = [diag.regge_actions[f"tet_{p}"] for p in (2, 3, 4)]
    thetas = [diag.angles[f"Theta_k1_{p}"] for p in (2, 3, 4)]
    phi1, phin = diag.angles["phi1"], diag.angles["phin"]
    j1 = sym.j[0]
    mu = sym.j[1] - sym.l[0]
    nu = sym.k[4] - sym.l[4]

    def contribution(sigma):
        cfg = omega_classify(5, 0, thetas, sigma)
        theta_l1, phi_mid, theta_ln = euler_from_glued_triangles(phi1, cfg.theta_k1, phin)
        arg = sum(s * (a + math.pi / 4) for s, a in zip(sigma, actions))
        arg += math.pi * 5 * float(j1) + f_phase(cfg, mu, nu, theta_l1, theta_ln, j1)
        return phi_mid, math.cos(arg) * small_d(j1, mu, nu, phi_mid)

    for sc, sigma in zip(diag.sign_configs, sigmas):
        phi_mid, here = contribution(sigma)
        assert phi_mid == sc["phi_l1_ln"]
        # the record's sixth edge is the law of cosines on l1, l5 and the mid-angle
        assert sc["glued_sixth_edge"] == law_of_cosines(
            float(sym.l[0]) + 0.5, float(sym.l[4]) + 0.5, phi_mid)
        flip_mid, flipped = contribution(tuple(-s for s in sigma))
        assert abs(phi_mid - flip_mid) < 1e-12
        assert abs(here - flipped) < 1e-12


def test_marking_normalization_and_rotation_invariance(rng):
    sym = sample_chain_15j(rng, base=40, t_small=2, nsmall_l=1)
    base_mark = SmallSpinMarking(("j", 1), frozenset({2}))
    ref, _ = asym_3nj(sym, base_mark)
    # rotate the symbol by 3: the small spin moves to j4... the marking
    # must follow; the value is symmetry-invariant
    rot = sym.rotated(6)    # shift 6 of 10: j1 -> k2 position? exercise k-row
    row = "k" if 6 >= sym.n else "j"
    idx = (0 - 6) % (2 * sym.n)
    # easier: locate the small spin by value scanning
    for row_name, entries in (("j", rot.j), ("k", rot.k)):
        for i, v in enumerate(entries):
            if v.twice == 2:
                mark2 = SmallSpinMarking((row_name, i + 1),
                                         frozenset({((2 - 1 - (6 % 5)) % 5) + 1}))
                got, _ = asym_3nj(rot, mark2)
                assert abs(got - ref) < 1e-12 * max(1.0, abs(ref))
                return
    raise AssertionError("small spin lost after rotation")


def test_hypothesis_validation():
    rng = random.Random(77)
    sym = sample_chain_15j(rng, base=40, t_small=2, nsmall_l=0)
    # l1 marked small: shares the first decomposition 6j with j1
    bad = SmallSpinMarking(("j", 1), frozenset({1}))
    violations = validate_hypotheses(sym, bad)
    assert any(v.code == "small_l_index" and v.severity == "error" for v in violations)
    with pytest.raises(HypothesisViolation):
        asym_3nj(sym, bad)
    ok_mark = SmallSpinMarking(("j", 1))
    assert not [v for v in validate_hypotheses(sym, ok_mark) if v.severity == "error"]
    # a declared small that is not actually small
    big_small = SmallSpinMarking(("j", 2))
    assert any(v.code == "scale_ratio"
               for v in validate_hypotheses(sym, big_small))


def test_out_of_range_small_l_rejected_under_every_marking():
    # n = 5 chain with small k4 and small l2; a small-l index outside 1..5
    # must be a violation whether or not the marking rotates the symbol
    t = [79, 81, 79, 82, 72, 76, 78, 76, 1, 77, 80, 2, 75, 76, 72]
    sym = Symbol3nj(tuple(H(x) for x in t[:5]), tuple(H(x) for x in t[5:10]),
                    tuple(H(x) for x in t[10:]))
    value, _ = asym_3nj(sym, SmallSpinMarking(("k", 4), frozenset({2})))
    assert abs(value - 2.1000202208802697e-10) < 1e-18
    for small_jk in (("j", 1), ("j", 3), ("k", 4)):
        for index in (0, 7, 12):
            mark = SmallSpinMarking(small_jk, frozenset({index}))
            violations = validate_hypotheses(sym, mark)
            assert any(v.code == "small_l_index" and v.severity == "error"
                       for v in violations), (small_jk, index)
            with pytest.raises(HypothesisViolation):
                asym_3nj(sym, mark)


def test_forbidden_tet_reported_by_formula_not_by_validation():
    # two oscillatory tetrahedra with two long opposite edges: valid spin
    # triads, negative Cayley-Menger determinants
    j = (H(2), H(16), H(16), H(16), H(16))
    k = (H(24), H(16), H(16), H(16), H(16))
    l = (H(16), H(24), H(8), H(24), H(16))
    sym = Symbol3nj(j, k, l)
    assert sym.is_valid()
    mark = SmallSpinMarking(("j", 1))
    tets = oscillatory_tetrahedra(sym, mark)
    assert {p for p, tet in tets.items() if tet.status() == "forbidden"} == {2, 4}
    with pytest.raises(NotClassicallyAllowed):
        asym_3nj(sym, mark)
    # validate_hypotheses checks the marking only
    assert not any(v.code == "caustic" for v in validate_hypotheses(sym, mark))
    # a bad marking is reported before any tetrahedron is built
    with pytest.raises(HypothesisViolation):
        asym_3nj(sym, SmallSpinMarking(("j", 1), frozenset({1})))


def test_determinant_evaluated_once_per_tetrahedron(monkeypatch, rng):
    from wigner_asym import geometry

    calls = []
    det = geometry.cayley_menger_determinant

    def counting_det(den, squares):
        calls.append(1)
        return det(den, squares)

    monkeypatch.setattr(geometry, "cayley_menger_determinant", counting_det)

    def count(fn, *args):
        calls.clear()
        fn(*args)
        return len(calls)

    assert count(pr_6j, [50] * 6) == 1
    assert count(asym_9j_one_small, Symbol9j.from_twice(860, 60, 860, 2, 120, 122, 862, 120, 860)) == 1
    # a 15j with only j1 small: three oscillatory tetrahedra (p = 2, 3, 4)
    sym = sample_chain_15j(rng, base=45, t_small=2, nsmall_l=0)
    mark = SmallSpinMarking(("j", 1))
    assert count(asym_3nj, sym, mark) == 3
    assert count(asym_15j_one_small, sym, mark) == 3


def test_one_exact_pass_per_tetrahedron(monkeypatch, rng):
    """Each tetrahedron evaluates its determinant once and builds at most
    one angle table, none when the determinant is negative, however often
    it is read.  One built from spins takes its integer squares straight
    from the twice spins; one built from float lengths converts them
    once."""
    from wigner_asym import geometry

    names = ("_integer_squares", "cayley_menger_determinant", "_dihedral_table")
    calls = Counter()
    for name in names:
        def counting(*args, _fn=getattr(geometry, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(geometry, name, counting)

    def count(fn, *args):
        calls.clear()
        fn(*args)
        return tuple(calls[name] for name in names)

    assert count(pr_6j, [50] * 6) == (0, 1, 1)
    assert count(asym_9j_one_small, Symbol9j.from_twice(860, 60, 860, 2, 120, 122, 862, 120, 860)) == (0, 1, 1)
    sym = sample_chain_15j(rng, base=45, t_small=2, nsmall_l=0)
    assert count(asym_3nj, sym, SmallSpinMarking(("j", 1))) == (0, 3, 3)

    def forbidden():
        tet = Tetrahedron((1, 1, 1, 1, 1, 1.95))
        assert tet.status() == "forbidden"
        for read in (volume, regge_action):
            with pytest.raises(NotClassicallyAllowed):
                read(tet)

    assert count(forbidden) == (1, 1, 0)


def test_formulas_convert_spins_only_at_entry(monkeypatch, rng):
    """Below the public entry the asymptotic formulas read twice spins:
    no spin goes through ``edge_length_from_spin`` and no projection
    through the checking ``small_d`` again, chain formulas included."""
    from wigner_asym import geometry, wigner_d

    calls = Counter()
    _count_calls(monkeypatch, calls, (geometry.edge_length_from_spin, wigner_d.small_d))
    for _, fn, *args in _formula_runs(rng):
        fn(*args)
    assert calls == {}
    geometry.edge_length_from_spin(1)
    wigner_d.small_d(1, 0, 0, 0.5)
    assert calls == {"edge_length_from_spin": 1, "small_d": 1}


def _formula_runs(rng) -> list:
    """One call (count, formula, *args) of each of the eight asymptotic
    formulas on a valid symbol, with the number of oscillatory tetrahedra
    it builds."""
    runs = [
        (1, pr_6j, [50] * 6),
        (0, edmonds_6j, 90, 100, 110, 1, 0, 1),
        (1, asym_9j_one_small, Symbol9j.from_twice(860, 60, 860, 2, 120, 122, 862, 120, 860)),
        (2, asym_3nj, sample_chain_15j(rng, base=45, t_small=2, nsmall_l=1),
         SmallSpinMarking(("j", 1), {2})),
    ]
    for fn, small_l in ((asym_15j_one_small, ()), (asym_15j_two_small, (2,)),
                        (asym_15j_three_small, (2, 3)), (asym_15j_four_small, (2, 3, 4))):
        sym = sample_chain_15j(rng, base=45, t_small=2, nsmall_l=len(small_l))
        runs.append((3 - len(small_l), fn, sym, SmallSpinMarking(("j", 1), frozenset(small_l))))
    return runs


def _count_calls(monkeypatch, calls: Counter, fns) -> None:
    """Count into ``calls``, by name, each call of the package functions
    ``fns``, wherever a package module holds them by name."""
    for fn in fns:
        name = fn.__name__
        def counting(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("wigner_asym") and vars(mod).get(name) is fn:
                monkeypatch.setattr(mod, name, counting)


def test_formulas_read_the_stored_tetrahedron(monkeypatch, rng):
    """Each formula builds each oscillatory tetrahedron in one pass, one
    determinant and one angle table, and then reads the caustic status,
    volume, Regge action and k1 dihedral stored on it: no ``status``,
    ``volume``, ``regge_action`` or ``dihedral_internal`` call."""
    from wigner_asym import geometry

    calls = Counter()
    _count_calls(monkeypatch, calls, (geometry.cayley_menger_determinant, geometry._dihedral_table,
                                      volume, regge_action, geometry.dihedral_internal))
    status = Tetrahedron.status

    def counting_status(tet):
        calls["status"] += 1
        return status(tet)

    monkeypatch.setattr(Tetrahedron, "status", counting_status)
    for tets, fn, *args in _formula_runs(rng):
        calls.clear()
        fn(*args)
        want = {"cayley_menger_determinant": tets, "_dihedral_table": tets} if tets else {}
        assert calls == want, fn.__name__


class _CountingMath:
    """The ``math`` module, counting each sin and cos call by argument."""

    def __init__(self, calls: Counter):
        self._calls = calls

    def __getattr__(self, name):
        return getattr(math, name)

    def sin(self, x):
        self._calls["sin", x] += 1
        return math.sin(x)

    def cos(self, x):
        self._calls["cos", x] += 1
        return math.cos(x)


def test_chain_takes_apex_trig_once(monkeypatch, rng):
    """A 15j-1 call sums four sign configurations, each gluing the same two
    end triangles, and takes sin and cos of their apex angles phi1 and phin
    once each, not once per configuration."""
    from wigner_asym import asymptotics, geometry

    sym = sample_chain_15j(rng, base=45, t_small=2, nsmall_l=0)
    calls = Counter()
    for mod in (asymptotics, geometry):
        monkeypatch.setattr(mod, "math", _CountingMath(calls))
    _, diag = asym_15j_one_small(sym, SmallSpinMarking(("j", 1)))
    phi1, phin = diag.angles["phi1"], diag.angles["phin"]
    assert len(diag.sign_configs) == 4 and phi1 != phin
    assert [calls[f, phi] for f in ("sin", "cos") for phi in (phi1, phin)] == [1, 1, 1, 1]


def test_marking_from_a_list_is_its_tuple(rng):
    """``SmallSpinMarking(["j", 1])`` stores the tuple ("j", 1): it hashes,
    equals the marking written with the tuple, and every closed 15j form
    accepts it with the same result."""
    assert SmallSpinMarking(["j", 1]) == SmallSpinMarking(("j", 1))
    assert hash(SmallSpinMarking(["k", 2], {3})) == hash(SmallSpinMarking(("k", 2), {3}))
    assert SmallSpinMarking(["j", 1]).small_jk == ("j", 1)
    for fn, small_l in ((asym_15j_one_small, ()), (asym_15j_two_small, (2,)),
                        (asym_15j_three_small, (2, 3)), (asym_15j_four_small, (2, 3, 4))):
        sym = sample_chain_15j(rng, base=45, t_small=2, nsmall_l=len(small_l))
        got, diag = fn(sym, SmallSpinMarking(["j", 1], small_l))
        want, want_diag = fn(sym, SmallSpinMarking(("j", 1), small_l))
        assert got == want and vars(diag) == vars(want_diag), fn.__name__


def test_negative_spin_rejected_at_every_formula_entry(monkeypatch, rng, capsys):
    """All eight formulas reject a negative spin at their entry with one
    ValueError that names it, before any geometry, and the CLI exits 2 on
    it; the exact symbol is 0."""
    from wigner_asym import geometry
    from wigner_asym.cli import main

    calls = Counter()
    _count_calls(monkeypatch, calls, (geometry.cayley_menger_determinant, geometry.triangle_angle))
    runs = [(pr_6j, [-1, 20, 20, 20, 20, 20]), (edmonds_6j, 10, 10, 10, 0, 0, -1),
            (asym_9j_one_small, Symbol9j.from_twice(860, 60, 860, -2, 120, 122, 862, 120, 860))]
    for _, fn, *args in _formula_runs(rng)[3:]:
        sym, mark = args
        runs.append((fn, Symbol3nj(sym.j, sym.k, sym.l[:4] + (H(-2),)), mark))
    for fn, *args in runs:
        with pytest.raises(ValueError, match=r"^spin -1 is negative$"):
            fn(*args)
    with pytest.raises(ValueError, match=r"^spin -5/2 is negative$"):
        edmonds_6j(H(-5), 10, 10, 0, 0, 1)
    assert calls == {}
    assert wigner9j(Symbol9j.from_twice(860, 60, 860, -2, 120, 122, 862, 120, 860)).value.is_zero
    for argv in (["pr6j", "-2", "40", "40", "40", "40", "40"],
                 ["edmonds", "20", "20", "20", "0", "0", "-2"]):
        assert main(["asym", *argv]) == 2
        assert capsys.readouterr().err == "error: spin -1 is negative\n"


def test_n3_specialization_exact_against_9j_formula():
    with mpmath.workdps(45):
        for ts, tets in ((2, (120, 124, 122, 118, 126, 120)),
                         (4, (160, 160, 164, 158, 162, 166))):
            tj1, tj2, tj12, tj34, tj5, tj24 = tets
            sym = Symbol9j.from_twice(tj1, tj2, tj12, ts, tj34, tj34,
                                      tj1, tj24, tj5)
            assert sym.is_valid()
            v9, _ = asym_9j_one_small(sym)
            v3, diag = asym_3nj(sym.as_chain(), SmallSpinMarking(("j", 1)))
            assert diag.sign_configs[0]["case"] == "II"
            rel = abs(v3 - chain_sign(sym) * v9) / max(abs(v9), 1e-300)
            assert rel < 1e-12
            exact = float(wigner9j(sym).value)
            assert v9 * exact > 0 and abs(v9 - exact) < 0.05 * abs(exact)


def test_15j_wrappers_match_general_driver(rng):
    # four-small: fully symmetric family
    sym = Symbol3nj((H(2),) + (H(80),) * 4, (H(90),) + (H(84),) * 4,
                    (H(80), H(2), H(4), H(2), H(84)))
    assert sym.is_valid()
    mark = SmallSpinMarking(("j", 1), frozenset({2, 3, 4}))
    w, _ = asym_15j_four_small(sym, mark)
    g, _ = asym_3nj(sym, mark)
    assert abs(w - g) < 1e-12 * max(abs(g), 1e-300)

    # three-small overlap family
    tJ, tK, tK1 = 120, 116, 124
    sym = Symbol3nj(
        (H(2), H(tJ), H(tJ), H(tJ), H(118)),
        (H(tK1), H(tK), H(tK), H(tK), H(122)),
        (H(tJ), H(2), H(4), H(120), H(122)),
    )
    assert sym.is_valid()
    mark = SmallSpinMarking(("j", 1), frozenset({2, 3}))
    w, _ = asym_15j_three_small(sym, mark)
    g, _ = asym_3nj(sym, mark)
    assert abs(w - g) < 1e-12 * max(abs(g), 1e-300)

    # two-small overlap family
    sym = Symbol3nj(
        (H(2), H(tJ), H(tJ), H(118), H(122)),
        (H(tK1), H(tK), H(tK), H(120), H(118)),
        (H(tJ), H(4), H(118), H(122), H(118)),
    )
    assert sym.is_valid()
    mark = SmallSpinMarking(("j", 1), frozenset({2}))
    w, _ = asym_15j_two_small(sym, mark)
    g, _ = asym_3nj(sym, mark)
    assert abs(w - g) < 1e-12 * max(abs(g), 1e-300)

    # one-small overlap family (cancellation-aware scale)
    sym = sample_chain_15j(rng, base=58, t_small=2, nsmall_l=0)
    j, k, l = list(sym.j), list(sym.k), list(sym.l)
    l[0], l[4] = j[1], k[4]   # mu = nu = 0
    sym = Symbol3nj(tuple(j), tuple(k), tuple(l))
    assert sym.is_valid()
    mark = SmallSpinMarking(("j", 1))
    w, dw = asym_15j_one_small(sym, mark)
    g, dg = asym_3nj(sym, mark)
    envelope = 4.0 / (48.0 * math.pi * math.sqrt(
        12.0 * math.pi * sym.j[1].dim * sym.k[4].dim
        * np.prod(list(dw.volumes.values()))))
    assert abs(w - g) < 1e-12 * max(abs(g), envelope)


def _sample_9j_one_small(rng, base: int) -> Symbol9j:
    """A valid 9j with a small s (1/2 to 2), the other spins within 3 of
    ``base`` and any parity, mu = j13 - j1 and nu = j34 - j4 drawn over
    their whole range."""
    while True:
        ts = rng.choice([1, 2, 3, 4])
        t1, t2, t12, t4, t24, t5 = (2 * base + rng.randint(-6, 6) for _ in range(6))
        sym = Symbol9j.from_twice(t1, t2, t12, ts, t4, t4 + rng.randrange(-ts, ts + 1, 2),
                                  t1 + rng.randrange(-ts, ts + 1, 2), t24, t5)
        if sym.is_valid():
            return sym


def _agree_within_rms(pairs_by_base, rel):
    """Each (wrapper, closed form) pair agrees within ``rel`` times the RMS
    of the closed-form values at its base."""
    for base, pairs in pairs_by_base.items():
        rms = math.sqrt(np.mean([want ** 2 for _, want in pairs]))
        worst = max(abs(got - want) for got, want in pairs)
        assert worst <= rel * rms, (base, worst, rms)


def test_9j_wrapper_matches_closed_form():
    """asym_9j_one_small runs the chain driver on the 9j's n = 3 chain; the
    closed 9j form agrees on 40 seeded 9j, mu and nu mostly nonzero and
    half-integer spins included."""
    rng = random.Random(2211)
    pairs, offsets, half = defaultdict(list), 0, 0
    for _ in range(40):
        base = rng.choice((30, 60, 120))
        sym = _sample_9j_one_small(rng, base)
        want = asym_9j_closed(sym)
        got, diag = asym_9j_one_small(sym)
        assert len(diag.sign_configs) == 1
        pairs[base].append((got, want))
        offsets += sym.j13 != sym.j1 and sym.j34 != sym.j4
        half += sym.j1.twice % 2
    assert len(pairs) == 3 and offsets >= 20 and half >= 5, (offsets, half)
    _agree_within_rms(pairs, 1e-11)


def test_15j_one_small_wrapper_matches_closed_form():
    """asym_15j_one_small runs the chain driver with ends (j2, k5) behind
    its near-regular guard; the closed 15j-1 form agrees at bases 30, 60
    and 120, mu and nu mostly nonzero."""
    rng = random.Random(2212)
    mark = SmallSpinMarking(("j", 1))
    pairs, offsets = defaultdict(list), 0
    for base in (30, 60, 120):
        for _ in range(12):
            sym = sample_chain_15j(rng, base=base, t_small=rng.choice([1, 2, 3, 4]))
            want = asym_15j_one_small_closed(sym)
            got, diag = asym_15j_one_small(sym, mark)
            assert len(diag.sign_configs) == 4
            pairs[base].append((got, want))
            offsets += sym.j[1] != sym.l[0] and sym.k[4] != sym.l[4]
    assert offsets >= 18, offsets
    _agree_within_rms(pairs, 1e-11)


def test_15j_four_small_zero_smalls_collapse():
    # l2 = l3 = l4 = 0 and j1 = 0 force the chain down to dimension factors
    sym = Symbol3nj((H(0),) + (H(60),) * 4, (H(70),) * 5,
                    (H(60), H(0), H(0), H(0), H(70)))
    assert sym.is_valid()
    mark = SmallSpinMarking(("j", 1), frozenset({2, 3, 4}))
    value, _ = asym_15j_four_small(sym, mark)
    assert abs(value - 1.0 / (61 ** 2 * 71 ** 2)) < 1e-18


def test_15j_wrappers_reject_wrong_patterns(rng):
    sym = sample_chain_15j(rng, base=40, t_small=2, nsmall_l=1)
    with pytest.raises(ValueError):
        asym_15j_one_small(sym, SmallSpinMarking(("j", 1), frozenset({2})))
    with pytest.raises(ValueError):
        asym_15j_two_small(sym, SmallSpinMarking(("j", 2), frozenset({2})))


def test_15j_two_small_label_swap_convention(rng):
    """theta3 < theta4 configurations are evaluated by swapping the two
    oscillatory tetrahedra; the result must match the general driver."""
    found = 0
    for _ in range(40):
        sym = sample_chain_15j(rng, base=40, t_small=2, nsmall_l=1)
        j, k, l = list(sym.j), list(sym.k), list(sym.l)
        l[0], l[4] = j[1], k[4]
        j[2], k[2] = j[1], k[1]   # eta2 = kappa2 = 0 overlap
        try:
            sym = Symbol3nj(tuple(j), tuple(k), tuple(l))
        except ValueError:
            continue
        if not sym.is_valid():
            continue
        mark = SmallSpinMarking(("j", 1), frozenset({2}))
        try:
            w, diag = asym_15j_two_small(sym, mark)
            g, _ = asym_3nj(sym, mark)
        except (NotClassicallyAllowed, CaseAngleOutOfRange, HypothesisViolation):
            continue
        if diag.angles["theta3"] < diag.angles["theta4"]:
            found += 1
        assert abs(w - g) < 1e-11 * max(abs(g), 1e-300)
        if found >= 2:
            break
    assert found >= 1


def test_error_scaling_improves_with_spin(rng):
    """Fixed-shape 9j family, small spin 1: relative accuracy is
    non-decreasing as the large spins double.  The shape keeps the
    reference tetrahedron near-regular so the whole family stays allowed."""
    base = (40, 42, 44, 2, 38, 38, 40, 42, 46)
    rms = []
    with mpmath.workdps(45):
        for lam in (1, 2, 4):
            tj = [t * lam for t in base]
            tj[3] = 2   # small spin stays fixed
            errs, mags = [], []
            lo, hi = 42 * lam - 16 * lam, 42 * lam + 16 * lam
            for tj24 in range(lo, hi + 1, 2 * lam):
                grid = list(tj)
                grid[7] = tj24
                sym = Symbol9j.from_twice(*grid)
                if not sym.is_valid():
                    continue
                try:
                    approx, _ = asym_9j_one_small(sym)
                except NotClassicallyAllowed:
                    continue
                exact = float(wigner9j(sym).value)
                errs.append(abs(exact - approx))
                mags.append(exact)
            assert len(errs) >= 8, (lam, len(errs))
            rms.append(math.sqrt(np.mean(np.square(errs)))
                       / math.sqrt(np.mean(np.square(mags))))
    assert rms[2] < rms[0]
    inversions = sum(1 for a, b in zip(rms, rms[1:]) if b > a)
    assert inversions <= 1, rms


def _scaled_chain(sym, lam):
    """Scale every large spin by lam, keeping the declared smalls fixed."""
    tj = [sym.j[0].twice] + [x.twice * lam for x in sym.j[1:]]
    tk = [x.twice * lam for x in sym.k]
    tl = [sym.l[0].twice * lam, sym.l[1].twice, sym.l[2].twice,
          sym.l[3].twice * lam, sym.l[4].twice * lam]
    return Symbol3nj(tuple(map(H, tj)), tuple(map(H, tk)), tuple(map(H, tl)))


def test_three_small_converges_to_exact_with_scale():
    """Pointwise relative error can be large where the rotation-matrix
    factors sit near zeros; the absolute error must still vanish as the
    large spins scale up."""
    sym = Symbol3nj(tuple(map(H, (2, 100, 100, 100, 96))),
                    tuple(map(H, (102, 98, 98, 98, 96))),
                    tuple(map(H, (100, 2, 4, 104, 96))))
    assert sym.is_valid()
    mark = SmallSpinMarking(("j", 1), frozenset({2, 3}))
    errs = []
    with mpmath.workdps(50):
        for lam in (1, 2, 4):
            scaled = _scaled_chain(sym, lam)
            assert scaled.is_valid()
            w, _ = asym_15j_three_small(scaled, mark)
            ex = float(wigner15j(scaled.j, scaled.k, scaled.l))
            errs.append(abs(w - ex))
    assert errs[2] < 0.1 * errs[0], errs


def test_four_small_converges_to_exact_with_scale():
    sym = Symbol3nj(tuple(map(H, (4, 120, 120, 120, 120))),
                    tuple(map(H, (100, 116, 116, 116, 116))),
                    tuple(map(H, (120, 4, 4, 4, 116))))
    assert sym.is_valid()
    mark = SmallSpinMarking(("j", 1), frozenset({2, 3, 4}))
    errs = []
    with mpmath.workdps(50):
        for lam in (1, 2, 4):
            scaled = _scaled_chain(sym, lam)
            assert scaled.is_valid()
            w, _ = asym_15j_four_small(scaled, mark)
            ex = float(wigner15j(scaled.j, scaled.k, scaled.l))
            errs.append(abs(w - ex))
    assert errs[2] < 0.2 * errs[0], errs


def test_two_small_tracks_exact():
    rng = random.Random(913)
    pts_exact, pts_asym = [], []
    with mpmath.workdps(45):
        tries = 0
        while len(pts_exact) < 8 and tries < 60:
            tries += 1
            tJ = 2 * (50 + rng.randint(-2, 2))
            tK = 2 * (50 + rng.randint(-2, 2))
            tj = [2, tJ, tJ, 2 * (50 + rng.randint(-2, 2)), 2 * (50 + rng.randint(-2, 2))]
            tk = [2 * (50 + rng.randint(-2, 2)), tK, tK,
                  2 * (50 + rng.randint(-2, 2)), 2 * (50 + rng.randint(-2, 2))]
            tl = [tJ, rng.choice([2, 4]), 2 * (50 + rng.randint(-2, 2)),
                  2 * (50 + rng.randint(-2, 2)), tk[4]]
            try:
                sym = Symbol3nj(tuple(map(H, tj)), tuple(map(H, tk)), tuple(map(H, tl)))
            except ValueError:
                continue
            if not sym.is_valid():
                continue
            mark = SmallSpinMarking(("j", 1), frozenset({2}))
            try:
                w, _ = asym_15j_two_small(sym, mark)
            except (NotClassicallyAllowed, CaseAngleOutOfRange, HypothesisViolation):
                continue
            pts_exact.append(float(wigner15j(sym.j, sym.k, sym.l)))
            pts_asym.append(w)
    assert len(pts_exact) >= 6
    corr = float(np.corrcoef(pts_exact, pts_asym)[0, 1])
    assert corr >= 0.95, corr
