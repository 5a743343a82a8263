import operator
import random
from fractions import Fraction

import pytest

from wigner_asym.errors import InternalConsistencyError
from wigner_asym import geometry, halfint
from wigner_asym.halfint import (
    FACES,
    HalfInt,
    _twice_phase,
    halfint_sum,
    ring_triads,
    sixj_ok,
    triad_allowed,
    triad_ok,
)


H = HalfInt.from_twice


def test_construction_forms():
    assert HalfInt(2).twice == 4
    assert HalfInt("3/2").twice == 3
    assert HalfInt(1.5).twice == 3
    assert HalfInt(Fraction(1, 2)).twice == 1
    assert HalfInt.from_twice(-3).twice == -3
    assert HalfInt(HalfInt(1)).twice == 2


def test_rejects_non_half_integers():
    with pytest.raises(ValueError):
        HalfInt(0.3)
    with pytest.raises(ValueError):
        HalfInt(Fraction(1, 3))
    with pytest.raises(TypeError):
        HalfInt.from_twice(1.5)


def test_arithmetic_and_ordering():
    a = HalfInt("1/2")
    b = HalfInt(1)
    assert (a + b).twice == 3
    assert (b - a).twice == 1
    assert (-a).twice == -1
    assert (3 * a).twice == 3
    assert a < b and b >= a and a == HalfInt("1/2")
    assert abs(HalfInt.from_twice(-5)) == HalfInt("5/2")
    assert float(a) == 0.5
    assert a.as_fraction() == Fraction(1, 2)


def test_ordering_agrees_with_fraction():
    """All six comparisons, HalfInt against HalfInt and against int, in both
    operand orders, give what they give on the same values as Fractions."""
    ops = (operator.lt, operator.le, operator.eq, operator.ne, operator.gt, operator.ge)
    values = [H(t) for t in range(-5, 6)]
    for x in values:
        for y in values + list(range(-3, 4)):
            fx, fy = x.as_fraction(), y.as_fraction() if isinstance(y, HalfInt) else y
            for op in ops:
                assert op(x, y) == op(fx, fy), (op, x, y)
                assert op(y, x) == op(fy, fx), (op, y, x)


def test_dim_and_strings():
    assert HalfInt(2).dim == 5
    assert HalfInt("1/2").dim == 2
    assert str(HalfInt("3/2")) == "3/2"
    assert str(HalfInt(4)) == "4"
    assert HalfInt(1).is_integer and not HalfInt("1/2").is_integer


def test_phases():
    assert _twice_phase(HalfInt(3).twice, "test") == -1
    assert _twice_phase(HalfInt(4).twice, "test") == 1
    with pytest.raises(InternalConsistencyError):
        _twice_phase(HalfInt("1/2").twice, "test")


def test_twice_phase_matches_the_halfint_phase():
    """``_twice_phase(t, context)`` gives the sign, or raises the error with
    the message, that the phase of the HalfInt exponent t / 2 gave."""

    def halfint_phase(e: HalfInt, context: str) -> int:
        if e.twice % 2 != 0:
            raise InternalConsistencyError(f"{context}: exponent {e} is not an integer")
        return -1 if (e.twice // 2) % 2 else 1

    def outcome(fn, *args):
        try:
            return fn(*args)
        except InternalConsistencyError as exc:
            return type(exc), exc.args

    for t in range(-13, 14):
        want = outcome(halfint_phase, HalfInt.from_twice(t), "chain sign exponent")
        assert outcome(_twice_phase, t, "chain sign exponent") == want, t
    with pytest.raises(InternalConsistencyError, match=r"^9j phase R: exponent -3/2 is not an integer$"):
        _twice_phase(-3, "9j phase R")


def test_triad_examples():
    # boundary case a + b = c
    assert triad_allowed(HalfInt(1), HalfInt(1), HalfInt(2))
    assert not triad_allowed(HalfInt(1), HalfInt(1), HalfInt(3))
    # parity condition: spin sum must be an integer
    assert triad_allowed(HalfInt("1/2"), HalfInt(1), HalfInt("1/2"))
    assert not triad_allowed(HalfInt("1/2"), HalfInt(1), HalfInt(1))


def _triad_allowed_with_sign_test(a, b, c):
    """Oracle: the Clebsch-Gordan rule with an explicit test for negative
    twice values."""
    ta, tb, tc = a.twice, b.twice, c.twice
    if min(ta, tb, tc) < 0:
        return False
    if (ta + tb + tc) % 2 != 0:
        return False
    return abs(ta - tb) <= tc <= ta + tb


def test_triad_rule_needs_no_sign_test():
    """|a-b| <= c <= a+b already rules out negative spins: the one rule on
    twice values agrees with the rule that tests signs on every triple of
    twice values in -3..8."""
    span = range(-3, 9)
    for ta in span:
        for tb in span:
            for tc in span:
                want = _triad_allowed_with_sign_test(H(ta), H(tb), H(tc))
                assert triad_ok(ta, tb, tc) == want, (ta, tb, tc)
                assert triad_allowed(H(ta), H(tb), H(tc)) == want, (ta, tb, tc)


def test_sixj_ok_is_triad_ok_on_each_face(monkeypatch):
    """The 6j rule checks the four triads of FACES, in that order: the same
    verdict as triad_ok over FACES on every 6-tuple drawn from -2..7, and
    triad_ok sees the FACES triads in order, up to the first that
    fails."""
    assert FACES == ((0, 1, 2), (0, 4, 5), (3, 1, 5), (3, 4, 2))
    assert geometry.FACES is FACES
    rng = random.Random(32)
    verdicts = set()
    for _ in range(4000):
        six = [rng.randrange(-2, 8) for _ in range(6)]
        want = all(triad_ok(*(six[i] for i in face)) for face in FACES)
        assert sixj_ok(*six) == want, six
        verdicts.add(want)
    assert verdicts == {True, False}

    calls = []

    def counting(*tri):
        calls.append(tri)
        return triad_ok(*tri)

    monkeypatch.setattr(halfint, "triad_ok", counting)
    # {1 1 1; 1 1 1}, or with one spin raised to 3: the first face to fail
    # is FACES[first] (first = 4: none fails)
    for six, first in (((2, 2, 2, 2, 2, 2), 4), ((2, 2, 6, 2, 2, 2), 0),
                       ((2, 2, 2, 2, 2, 6), 1), ((2, 2, 2, 6, 2, 2), 2)):
        calls.clear()
        assert sixj_ok(*six) == (first == 4)
        assert calls == [tuple(six[i] for i in face) for face in FACES[:first + 1]], six


def _two_loop_triads(j, k, l):
    """The first-kind 3nj triads as two hand loops: along j closed into
    k_1, then along k closed into j_1."""
    n = len(j)
    out = [(j[i], l[i], j[i + 1]) for i in range(n - 1)] + [(j[n - 1], l[n - 1], k[0])]
    return out + [(k[i], l[i], k[i + 1]) for i in range(n - 1)] + [(k[n - 1], l[n - 1], j[0])]


def test_ring_triads_is_the_two_loop_list():
    """The ring of the first-kind chain lists the 2n triads of the two hand
    loops, in their order, on tuples and on lists."""
    rng = random.Random(3)
    for n in (3, 4, 5, 6):
        for _ in range(20):
            j, k, l = ([rng.randrange(0, 30) for _ in range(n)] for _ in range(3))
            want = _two_loop_triads(j, k, l)
            assert ring_triads(j, k, l) == want == ring_triads(tuple(j), tuple(k), tuple(l))


def test_halfint_sum():
    total = halfint_sum([HalfInt("1/2"), HalfInt(1), HalfInt("3/2")])
    assert total == HalfInt(3)
