"""Half-integer quantum numbers stored as twice-value integers.

Every spin and projection in the package is a :class:`HalfInt`.  Storing
``twice = 2j`` makes all parity checks (triangle sums, phase exponents)
exact integer arithmetic, with no rational parsing anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InternalConsistencyError


class HalfInt:
    """An element of Z/2: a spin magnitude or a projection.

    Construct from a value (``HalfInt(2)``, ``HalfInt(1.5)``,
    ``HalfInt("3/2")``, ``HalfInt(Fraction(1, 2))``) or from a twice-value
    integer via :meth:`from_twice`.  A value that already is a HalfInt is
    returned as it is: instances are immutable.
    """

    __slots__ = ("twice",)

    def __new__(cls, value):
        if isinstance(value, HalfInt):
            return value
        if isinstance(value, int):
            t = 2 * value
        elif isinstance(value, Fraction):
            t = _twice_from_fraction(value)
        elif isinstance(value, float):
            t = _twice_from_fraction(Fraction(value).limit_denominator(2))
            if abs(float(t) / 2.0 - value) > 1e-9:
                raise ValueError(f"{value!r} is not a half-integer")
        elif isinstance(value, str):
            t = _twice_from_fraction(Fraction(value))
        else:
            raise TypeError(f"cannot build HalfInt from {type(value).__name__}")
        return cls.from_twice(t)

    @classmethod
    def from_twice(cls, twice: int) -> "HalfInt":
        if not isinstance(twice, int):
            raise TypeError("twice-value must be an int")
        obj = object.__new__(cls)
        object.__setattr__(obj, "twice", twice)
        return obj

    def __reduce__(self):
        return HalfInt.from_twice, (self.twice,)

    # -- basic queries -------------------------------------------------

    @property
    def dim(self) -> int:
        """Dimension 2j+1 of the spin-j representation."""
        return self.twice + 1

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def as_fraction(self) -> Fraction:
        return Fraction(self.twice, 2)

    def __float__(self) -> float:
        return self.twice / 2.0

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        return HalfInt.from_twice(self.twice + _twice_of(other))

    __radd__ = __add__

    def __sub__(self, other):
        return HalfInt.from_twice(self.twice - _twice_of(other))

    def __neg__(self):
        return HalfInt.from_twice(-self.twice)

    def __abs__(self):
        return HalfInt.from_twice(abs(self.twice))

    def __mul__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        return HalfInt.from_twice(self.twice * other)

    __rmul__ = __mul__

    # -- ordering ------------------------------------------------------

    def __eq__(self, other):
        try:
            return self.twice == _twice_of(other)
        except TypeError:
            return NotImplemented

    def __lt__(self, other):
        return self.twice < _twice_of(other)

    def __le__(self, other):
        return self.twice <= _twice_of(other)

    def __gt__(self, other):
        return self.twice > _twice_of(other)

    def __ge__(self, other):
        return self.twice >= _twice_of(other)

    def __hash__(self):
        return hash(self.as_fraction())

    def __setattr__(self, name, value):
        raise AttributeError("HalfInt is immutable")

    def __repr__(self):
        return f"HalfInt({self})"

    def __str__(self):
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"


def _twice_of(x) -> int:
    if isinstance(x, HalfInt):
        return x.twice
    if isinstance(x, int):
        return 2 * x
    raise TypeError(f"expected HalfInt or int, got {type(x).__name__}")


def _twice_from_fraction(f: Fraction) -> int:
    g = f * 2
    if g.denominator != 1:
        raise ValueError(f"{f} is not a half-integer")
    return g.numerator


def halfint_sum(values) -> HalfInt:
    t = 0
    for v in values:
        t += _twice_of(v)
    return HalfInt.from_twice(t)


def _twice_phase(twice: int, context: str) -> int:
    """(-1)**e for the exponent e = twice / 2; InternalConsistencyError
    when e is not an integer."""
    if twice % 2:
        raise InternalConsistencyError(
            f"{context}: exponent {HalfInt.from_twice(twice)} is not an integer")
    return -1 if twice % 4 else 1


def triad_ok(ta: int, tb: int, tc: int) -> bool:
    """Clebsch-Gordan condition on twice values: integer sum and
    |a-b| <= c <= a+b, which also rules out negative spins."""
    return (ta + tb + tc) % 2 == 0 and abs(ta - tb) <= tc <= ta + tb


#: The four triads of a 6j {a b c; d e f}, as slots of (a, b, c, d, e, f):
#: (a, b, c), (a, e, f), (d, b, f), (d, e, c), the faces of its tetrahedron.
FACES = ((0, 1, 2), (0, 4, 5), (3, 1, 5), (3, 4, 2))


def sixj_ok(ta: int, tb: int, tc: int, td: int, te: int, tf: int) -> bool:
    """A 6j {a b c; d e f} (twice values) is admissible: :func:`triad_ok`
    on its four triads, in the order of :data:`FACES`."""
    return (triad_ok(ta, tb, tc) and triad_ok(ta, te, tf)
            and triad_ok(td, tb, tf) and triad_ok(td, te, tc))


def ring_triads(j, k, l) -> list:
    """The 2n triads of a first-kind 3nj symbol with rows j, k, l of
    length n: around the ring (j_1..j_n, k_1..k_n), each spin, the l of
    its column and the next spin, (j_p, l_p, j_{p+1}) and
    (k_p, l_p, k_{p+1}), closed by (j_n, l_n, k_1) and (k_n, l_n, j_1).
    The entries are taken as given, HalfInts or twice values."""
    ring = (*j, *k)
    return list(zip(ring, (*l, *l), ring[1:] + ring[:1]))


def triad_allowed(a: HalfInt, b: HalfInt, c: HalfInt) -> bool:
    """Clebsch-Gordan condition: triangle inequality plus integer sum."""
    return triad_ok(a.twice, b.twice, c.twice)


def projection_twice_ok(tm: int, tj: int) -> bool:
    """Projection condition on twice values: |m| <= j and j - m an
    integer."""
    return abs(tm) <= tj and (tj - tm) % 2 == 0


def projection_ok(m: HalfInt, j: HalfInt) -> bool:
    """Projection condition: |m| <= j and j - m an integer."""
    return projection_twice_ok(m.twice, j.twice)
