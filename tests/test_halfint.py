from fractions import Fraction

import pytest

from wigner_asym.asymptotics import _int_phase
from wigner_asym.errors import InternalConsistencyError
from wigner_asym.halfint import (
    HalfInt,
    halfint_sum,
    triad_allowed,
)


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


def test_dim_and_strings():
    assert HalfInt(2).dim == 5
    assert HalfInt("1/2").dim == 2
    assert str(HalfInt("3/2")) == "3/2"
    assert str(HalfInt(4)) == "4"
    assert HalfInt(1).is_integer and not HalfInt("1/2").is_integer


def test_phases():
    assert _int_phase(HalfInt(3), "test") == -1
    assert _int_phase(HalfInt(4), "test") == 1
    with pytest.raises(InternalConsistencyError):
        _int_phase(HalfInt("1/2"), "test")


def test_triad_examples():
    # boundary case a + b = c
    assert triad_allowed(HalfInt(1), HalfInt(1), HalfInt(2))
    assert not triad_allowed(HalfInt(1), HalfInt(1), HalfInt(3))
    # parity condition: spin sum must be an integer
    assert triad_allowed(HalfInt("1/2"), HalfInt(1), HalfInt("1/2"))
    assert not triad_allowed(HalfInt("1/2"), HalfInt(1), HalfInt(1))


def test_halfint_sum():
    total = halfint_sum([HalfInt("1/2"), HalfInt(1), HalfInt("3/2")])
    assert total == HalfInt(3)
