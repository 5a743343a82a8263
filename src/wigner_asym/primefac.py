"""Prime-factorized factorial arithmetic.

Quotients of factorial products are assembled as prime-exponent vectors
(Legendre's formula) and multiplied out by a balanced product tree, so every
big integer formed divides the reduced numerator or denominator.  This is
what keeps exact 6j evaluation viable at spins of several hundred.  The
package asks for one thing, the square root of such a quotient split into
a rational part and a squarefree radicand (``sqrt_factorial_quotient``):
each 3j, 6j and 6j chain makes one such call, with its rational factorial
part folded in squared, and ``wigner_d`` one per term of a small-d sum.

The exponent vector of n! is computed once per n and cached as a list
aligned with the prime table (entry i is the exponent of the i-th prime).
Growing the table only appends primes, so a cached vector stays aligned.
The cache holds at most 2**20 exponents in total, about 8 MB of list slots
on a 64-bit build; it is emptied when a new vector would exceed that.  A
cold run of 24 3j and 10 6j at spins 100-2000 plus one 15j stores about 66k.
Factorial arguments above ``MAX_FACTORIAL`` raise ValueError before any
sieving.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from fractions import Fraction
from math import isqrt
from operator import add, mul

_VECTOR_CACHE_ENTRIES = 1 << 20

#: Largest n whose n! the ledger factors.  Its prime sieve takes one byte
#: per integer up to n, so this bound caps the sieve at 10 MB.
MAX_FACTORIAL = 10**7


def _sieve(limit: int) -> list:
    """Primes <= limit by Eratosthenes."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    p = 2
    while p * p <= limit:
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
        p += 1
    return [i for i, f in enumerate(flags) if f]


def prime_exponent_in_factorial(n: int, p: int) -> int:
    """Exponent of the prime p in n! (Legendre's formula)."""
    e = 0
    q = n // p
    while q:
        e += q
        q //= p
    return e


class FactorialLedger:
    """Extendable table of n! as prime-exponent vectors.

    Reads never block: the prime table is grown by building a fresh list and
    publishing it with a single reference swap under ``_grow_lock``, so
    concurrent symbol evaluations only ever see a complete table.  The
    vector cache is read without a lock; only storing a new vector takes
    ``_vector_lock``.
    """

    def __init__(self, initial_limit: int = 256):
        self._grow_lock = threading.Lock()
        self._limit = max(4, initial_limit)
        self._primes = _sieve(self._limit)
        self._vector_lock = threading.Lock()
        self._vectors = {}          # n -> exponents of n!, aligned with _primes
        self._vector_entries = 0

    def primes_upto(self, n: int) -> list:
        if n > self._limit:
            if n > MAX_FACTORIAL:
                raise ValueError(f"cannot factor {n}!: above the bound {MAX_FACTORIAL}")
            with self._grow_lock:
                if n > self._limit:
                    new_limit = min(max(n, 2 * self._limit), MAX_FACTORIAL)
                    self._primes = _sieve(new_limit)   # grow, then publish
                    self._limit = new_limit
        primes = self._primes
        # The published list may extend beyond n.
        return primes[:bisect_right(primes, n)]

    def _exponent_vector(self, n: int) -> list:
        """Exponents of the primes <= n in n!, in prime-table order."""
        vec = self._vectors.get(n)
        if vec is None:
            primes = self.primes_upto(n)
            # A prime above sqrt(n) divides n! exactly n // p times.
            split = bisect_right(primes, isqrt(n))
            vec = [prime_exponent_in_factorial(n, p) for p in primes[:split]]
            vec += map(n.__floordiv__, primes[split:])
            with self._vector_lock:
                if self._vector_entries + len(vec) > _VECTOR_CACHE_ENTRIES:
                    self._vectors.clear()
                    self._vector_entries = 0
                self._vectors[n] = vec
                self._vector_entries += len(vec)
        return vec

    def combined_exponents(self, terms) -> dict:
        """Exponent vector of prod_i (n_i!)**c_i for terms = [(n_i, c_i)]."""
        weights = {}
        for n, c in terms:
            if n < 0:
                raise ValueError("factorial of a negative number")
            weights[n] = weights.get(n, 0) + c
        acc = []
        # Longest vector first, so every later one adds into a prefix.
        for n in sorted(weights, reverse=True):
            c = weights[n]
            if c == 0:
                continue
            vec = self._exponent_vector(n)
            scaled = vec if c == 1 else map(c.__mul__, vec)
            if acc:
                acc[:len(vec)] = map(add, acc, scaled)
            else:
                acc = list(scaled)
        # Read the table after any growth above, so it covers acc.
        return {p: e for p, e in zip(self._primes, acc) if e}

    def sqrt_factorial_quotient(self, terms):
        """Split sqrt(prod_i (n_i!)**c_i) into (rational, squarefree radicand).

        Returns (r, q) with the exact value equal to r*sqrt(q), r a positive
        Fraction and q a squarefree positive int.
        """
        num, den, rad = [], [], []
        for p, e in self.combined_exponents(terms).items():
            half, odd = divmod(e, 2)   # divmod keeps odd in {0, 1} for e < 0
            if half > 0:
                num.append(p ** half)
            elif half < 0:
                den.append(p ** -half)
            if odd:
                rad.append(p)
        return Fraction(_product(num), _product(den)), _product(rad)


def _product(factors: list) -> int:
    """Product of ints by a balanced tree: adjacent pairs level by level, so
    the big multiplications meet operands of like size."""
    while len(factors) > 1:
        factors = list(map(mul, factors[::2], factors[1::2] + [1]))
    return factors[0] if factors else 1


DEFAULT_LEDGER = FactorialLedger()
