"""Exact values of the form sign * r * sqrt(q).

Closed form for 3j and 6j symbols: a signed rational times the square root
of a squarefree positive integer.  The constructor takes the parts in that
canonical form and does not factor the radicand, so equality is structural.

This module also owns how an exact value becomes a float or decimal text.
Both come from one integer core, floor(|v| * base**k) = isqrt of the scaled
square rat**2 * rad, so neither depends on any floating-point context.
"""

from __future__ import annotations

import math
from fractions import Fraction


class SqrtRational:
    """sign * rat * sqrt(rad) with rat a positive Fraction, rad a squarefree int."""

    __slots__ = ("sign", "rat", "rad")

    def __init__(self, sign: int, rat, rad: int):
        """``rad`` must already be squarefree (the symbol engines build it
        from prime exponent vectors); a negative ``rat`` flips the sign, and
        a zero part makes the whole value the canonical zero."""
        if rad < 0:
            raise ValueError("radicand must be non-negative")
        if sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or +1")
        if not (sign and rat and rad):
            sign, rat, rad = 0, Fraction(0), 1
        elif rat < 0:
            sign, rat = -sign, -rat
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "rat", rat)
        object.__setattr__(self, "rad", rad)

    @classmethod
    def of(cls, value) -> "SqrtRational":
        """Exact rational value, radicand 1."""
        return cls(1, Fraction(value), 1)

    @classmethod
    def zero(cls) -> "SqrtRational":
        return cls(0, Fraction(0), 1)

    # -- queries ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.sign == 0

    def value_squared(self) -> Fraction:
        """Exact square (always rational)."""
        return self.rat * self.rat * self.rad

    def _square(self):
        """(num, den), plain ints with num / den = value**2; the ratio is
        exact but need not be in lowest terms."""
        return self.rat.numerator ** 2 * self.rad, self.rat.denominator ** 2

    def _scaled_floor(self, base: int, k: int) -> int:
        """floor(|self| * base**k), exactly, for any integer k."""
        num, den = self._square()
        if k >= 0:
            num *= base ** (2 * k)
        else:
            den *= base ** (-2 * k)
        return math.isqrt(num // den)

    def _log2_square(self) -> int:
        """log2(value**2), to within 1: bit_length(x) - 1 <= log2(x) <
        bit_length(x) for num and den alike, in lowest terms or not."""
        num, den = self._square()
        return num.bit_length() - den.bit_length()

    def __float__(self) -> float:
        """The correctly rounded float."""
        if self.rad == 1:
            return float(self.sign * self.rat)
        # m has at least 64 bits.  rad > 1 makes the value irrational, so it
        # lies strictly inside (m, m + 1), which holds no rounding boundary:
        # m + 1/2 (a sticky bit) rounds the same way.
        k = 66 - self._log2_square() // 2
        m = self._scaled_floor(2, k)
        return self.sign * float(Fraction(2 * m + 1) / Fraction(2) ** (k + 1))

    def to_decimal(self, digits: int, strip_zeros: bool = True) -> str:
        """The value rounded half up to ``digits`` significant digits: fixed
        notation when the decimal exponent lies strictly between
        min(-(digits//3), -5) and ``digits``, else ``d.ddde-N``/``d.ddde+N``;
        ``0.0`` for zero.  Trailing zeros go unless ``strip_zeros`` is off."""
        if digits < 1:
            raise ValueError("digits must be at least 1")
        if self.sign == 0:
            return "0.0"
        # a lower bound of the exponent, so t has at least digits + 1 digits
        exp = math.floor((self._log2_square() - 1) * math.log10(2) / 2) - 1
        t = self._scaled_floor(10, digits - exp)
        extra = len(str(t)) - digits - 1
        mant, last = divmod(t // 10 ** extra, 10)
        exp += extra
        if last >= 5:
            mant += 1
            if mant == 10 ** digits:   # 9.99... carries into the exponent
                mant, exp = mant // 10, exp + 1
        text, split = str(mant), 1
        if min(-(digits // 3), -5) < exp < digits:
            text, split, exp = "0" * -exp + text, max(exp, 0) + 1, 0
        frac = (text[split:].rstrip("0") or "0") if strip_zeros else text[split:]
        suffix = f"e{exp:+d}" if exp else ""
        return f"{'-' if self.sign < 0 else ''}{text[:split]}.{frac}{suffix}"

    # -- algebra ---------------------------------------------------------

    def __neg__(self):
        return SqrtRational(-self.sign, self.rat, self.rad)

    def __mul__(self, other):
        if isinstance(other, SqrtRational):
            if self.sign == 0 or other.sign == 0:
                return SqrtRational.zero()
            r1, r2 = self.rad, other.rad
            g = math.gcd(r1, r2)
            # squarefree * squarefree: the shared part squares out exactly
            return SqrtRational(
                self.sign * other.sign,
                self.rat * other.rat * g,
                (r1 // g) * (r2 // g),
            )
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if q == 0 or self.sign == 0:
                return SqrtRational.zero()
            s = self.sign if q > 0 else -self.sign
            return SqrtRational(s, self.rat * abs(q), self.rad)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, SqrtRational):
            return NotImplemented
        return (self.sign, self.rat, self.rad) == (other.sign, other.rat, other.rad)

    def __hash__(self):
        return hash((self.sign, self.rat, self.rad))

    def __setattr__(self, name, value):
        raise AttributeError("SqrtRational is immutable")

    def __reduce__(self):
        return SqrtRational, (self.sign, self.rat, self.rad)

    def __repr__(self):
        return f"SqrtRational({self})"

    def __str__(self):
        if self.sign == 0:
            return "0"
        s = "-" if self.sign < 0 else ""
        if self.rad == 1:
            return f"{s}{self.rat}"
        if self.rat == 1:
            return f"{s}sqrt({self.rad})"
        return f"{s}{self.rat}*sqrt({self.rad})"

