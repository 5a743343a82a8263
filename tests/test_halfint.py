import operator
from fractions import Fraction

import pytest

from wigner_asym.asymptotics import _twice_phase
from wigner_asym.errors import InternalConsistencyError
from wigner_asym.halfint import (
    HalfInt,
    halfint_sum,
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


def test_halfint_sum():
    total = halfint_sum([HalfInt("1/2"), HalfInt(1), HalfInt("3/2")])
    assert total == HalfInt(3)
