import copy
import dataclasses
import math
import pickle
import random
from fractions import Fraction

import mpmath
import pytest

from wigner_asym.exact import Symbol9j, wigner6j, wigner9j
from wigner_asym.halfint import HalfInt
from wigner_asym.identities import random_valid_9j
from wigner_asym.sqrtrat import SqrtRational

from conftest import to_mpf


def test_zero_canonical_form():
    z = SqrtRational.zero()
    assert z.is_zero and z.rat == 0 and z.rad == 1
    assert SqrtRational(0, 5, 7) == z
    assert SqrtRational(1, 0, 7) == z
    assert SqrtRational(1, 5, 0) == z
    assert str(z) == "0"


def test_multiplication_squares_out_common_radicals():
    a = SqrtRational(1, Fraction(1, 2), 6)
    b = SqrtRational(-1, Fraction(2, 3), 15)
    prod = a * b
    # sqrt(6) sqrt(15) = 3 sqrt(10)
    assert prod.sign == -1
    assert prod.rat == Fraction(1, 2) * Fraction(2, 3) * 3
    assert prod.rad == 10
    sq = a * a
    assert sq.rad == 1 and sq.rat == Fraction(6, 4)
    assert (a * Fraction(-2)).sign == -1
    assert (a * 0).is_zero


def test_value_and_float():
    v = SqrtRational(-1, Fraction(1, 3), 3)   # -1/sqrt(3)
    assert abs(float(v) + 1 / math.sqrt(3)) < 1e-15
    assert v.value_squared() == Fraction(1, 3)
    with mpmath.workdps(60):
        x = to_mpf(v)
        assert abs(x + 1 / mpmath.sqrt(3)) < mpmath.mpf(10) ** -58


def test_equality_and_repr():
    assert SqrtRational(1, Fraction(2), 3) == SqrtRational(1, Fraction(2), 3)
    assert SqrtRational.of(Fraction(-5, 7)).sign == -1
    assert str(SqrtRational(1, Fraction(1, 35), 35)) == "1/35*sqrt(35)"
    assert str(SqrtRational.of(Fraction(1, 6))) == "1/6"


def test_huge_radicand_guard():
    # a big squarefree radicand is stored as given, never factored
    v = SqrtRational(1, Fraction(1), 10**14 + 1)
    assert v.rad == 10**14 + 1


def seeded_symbol_values(seed=20240817, n6=120, n9=30):
    """Nonzero exact 6j (spins up to 20) and 9j (spins up to 15) values."""
    rng = random.Random(seed)
    values = []
    while len(values) < n6:
        v = wigner6j(*(HalfInt.from_twice(rng.randrange(0, 41)) for _ in range(6)))
        if not v.is_zero:
            values.append(v)
    while len(values) < n6 + n9:
        v = wigner9j(random_valid_9j(rng, tmax=30)).value
        if not v.is_zero:
            values.append(v)
    return values


def switch_values(digits):
    """Values whose decimal exponent sits on each side of the fixed/exponent
    layout switch: min(-(digits//3), -5) and digits."""
    low = min(-(digits // 3), -5)
    out = []
    for e in (low - 1, low, low + 1, digits - 1, digits, digits + 1):
        scale = Fraction(10) ** e
        out += [SqrtRational(1, scale, 2), SqrtRational(-1, scale * Fraction(3, 7), 1)]
    return out


FORMAT_CASES = [
    SqrtRational.zero(),
    SqrtRational.of(Fraction(1, 6)),
    SqrtRational.of(Fraction(-5, 7)),
    SqrtRational.of(Fraction(1, 8)),          # dyadic: ties at 2 digits round up
    SqrtRational.of(Fraction(10**60 - 1, 10**60)),      # 0.999...: carries to 1.0
    SqrtRational(1, Fraction(3, 10**5), 1111111111),     # sqrt(1 - 1e-10): carries too
    SqrtRational(-1, Fraction(999_999_999_999_999_999, 10**20), 1),
    SqrtRational(1, Fraction(2, 3003), 595),
]


@pytest.mark.parametrize("digits", [1, 2, 12, 17, 50])
@pytest.mark.parametrize("strip_zeros", [True, False])
def test_to_decimal_matches_mpmath_nstr(digits, strip_zeros):
    """The integer formatter against mpmath.nstr evaluated 40 digits above
    the printed precision, so mpmath's own rounding cannot interfere."""
    values = FORMAT_CASES + switch_values(digits) + seeded_symbol_values(n6=40, n9=10)
    with mpmath.workdps(digits + 40):
        for v in values:
            expect = mpmath.nstr(to_mpf(v), digits, strip_zeros=strip_zeros)
            assert v.to_decimal(digits, strip_zeros=strip_zeros) == expect, v


def test_to_decimal_layout_examples():
    assert SqrtRational.zero().to_decimal(17, strip_zeros=False) == "0.0"
    assert SqrtRational.of(Fraction(1, 6)).to_decimal(5) == "0.16667"
    assert SqrtRational.of(Fraction(1, 8)).to_decimal(2) == "0.13"
    assert SqrtRational.of(Fraction(-10**6)).to_decimal(3) == "-1.0e+6"
    assert SqrtRational(1, Fraction(3, 10**5), 1111111111).to_decimal(5) == "1.0"
    assert SqrtRational(1, Fraction(1, 10**7), 3).to_decimal(3) == "1.73e-7"
    assert SqrtRational(1, Fraction(1, 10**7), 3).to_decimal(3, strip_zeros=False) == "1.73e-7"
    assert SqrtRational.of(Fraction(1, 2)).to_decimal(4, strip_zeros=False) == "0.5000"
    # half up on the exact value, not on a rounded working value
    assert SqrtRational(1, Fraction(2, 3003), 595).to_decimal(50).endswith("510656")
    with pytest.raises(ValueError):
        SqrtRational.of(1).to_decimal(0)


def _is_correctly_rounded(v: SqrtRational, f: float) -> bool:
    """Exact check that v lies within half an ulp of f on both sides."""
    if v.sign == 0:
        return f == 0.0
    if (f < 0) != (v.sign < 0):
        return False
    mag = abs(f)
    lo = (Fraction(mag) + Fraction(math.nextafter(mag, 0.0))) / 2
    hi = (Fraction(mag) + Fraction(math.nextafter(mag, math.inf))) / 2
    return lo * lo <= v.value_squared() <= hi * hi


def test_float_is_correctly_rounded():
    values = seeded_symbol_values() + FORMAT_CASES + [
        SqrtRational(1, Fraction(1, 3), 3),
        SqrtRational(-1, Fraction(7, 10**300), 2),        # near the subnormal range
        SqrtRational(1, Fraction(1, 10**310), 3),         # subnormal
        SqrtRational(1, Fraction(10**300), 5),
        # just above 1 + 2**-53, the midpoint between 1.0 and the next
        # float: truncating instead of keeping a sticky bit rounds to 1.0
        # (squarefree radicand: 73 * 22095889 * 1883016930409 * 437633858934529)
        SqrtRational(1, Fraction(1, 2**60), (2**60 + 2**7) ** 2 + 1),
    ]
    for v in values:
        assert _is_correctly_rounded(v, float(v)), v


def test_copy_deepcopy_and_pickle_round_trip():
    """The immutable value types copy and pickle to equal values, and so do
    the dataclasses that hold them; HalfInt(h) is h itself."""
    sym = Symbol9j.from_twice(860, 60, 860, 2, 120, 122, 862, 120, 860)
    values = [HalfInt(3), HalfInt("-5/2"), SqrtRational(1, Fraction(1, 3), 2),
              SqrtRational.zero(), wigner9j(sym).value, sym]
    for value in values:
        for twin in (copy.copy(value), copy.deepcopy(value),
                     pickle.loads(pickle.dumps(value))):
            assert twin == value and type(twin) is type(value)
    h = HalfInt("3/2")
    assert HalfInt(h) is h
    assert dataclasses.asdict(sym)["j24"] == HalfInt(60)
