"""Prime-factorized factorial arithmetic.

Quotients of factorial products are assembled as prime-exponent vectors
(Legendre's formula; packed as in Johansson and Forssén, SIAM J. Sci.
Comput. 38 (2016) A376) and multiplied out by a balanced product tree, so
every big integer formed divides the reduced numerator or denominator.
This is what keeps exact 6j evaluation viable at spins of several hundred.
The package asks for one thing, the square root of such a quotient split
into a rational part and a squarefree radicand
(``sqrt_factorial_quotient``): each 3j, 6j and 6j chain makes one such
call, with its rational factorial part folded in squared, and ``wigner_d``
one per term of a small-d sum.

Packing.  The exponent vector of n! is one Python int with a field of
_FIELD = 64 bits per prime: the exponent of the i-th prime of the table
sits in bits 64i .. 64i+63.  So prod_i (n_i!)**c_i is the int
sum_i c_i V(n_i), one multiply-add per term; adding the bias 2**63 to every
field, reading the bytes as 64-bit words and flipping the top bit of each
(an xor with the bias) gives every exponent as a signed 64-bit word in one
pass through ``int.to_bytes`` and a ``memoryview`` cast to signed 64-bit
items, an array view that needs no extension module (loading ``array``
would add about 0.6 ms and 140 kB to every import of the package).  Growing the prime table only
appends primes, so a cached vector stays aligned.  Building V(n) cold is
mostly bytes work: a prime p > n/9 with p*p > n divides n! exactly
n // p <= 8 times, so the fields of the primes in (n/(v+1), n/v] are one
block of the word v repeated, for v = 8 down to 1; only the primes below
take ``n // p`` or Legendre's formula one by one.

Field bound.  The sum is exact whatever the signs, so the decoded fields
are the exponents E_p = sum_i c_i e_p(n_i!) as long as every E_p lies in
[-2**63, 2**63), i.e. every biased field in [0, 2**64).  Legendre's
formula gives e_p(n!) = sum_k floor(n/p**k) <= sum_k floor(n/2**k)
= e_2(n!) = n - popcount(n) for every prime p, so
|E_p| <= S = sum_n |c_n| (n - popcount(n)), the weights c_n of equal n
merged first.  A call with S >= 2**63 raises ValueError before any vector
is touched, so a field never wraps.  If its merged weights all have one
sign, |E_2| = S and the square root alone would need more than 2**62
bits, so no such call could be evaluated; with mixed signs its weights
must still reach 2**63 / MAX_FACTORIAL, about 9e11, in size.

The cache holds at most 8 MB of packed fields (8 bytes per prime per
vector); it is emptied when a new vector would exceed that.  A cold run of
24 3j and 10 6j at spins 100-2000 plus one 15j stores about 0.5 MB.
Factorial arguments above ``MAX_FACTORIAL`` raise ValueError before any
sieving.

Concurrency.  Reads never block: the prime table is grown by building a
fresh list and publishing it with a single reference swap under
``_grow_lock``, so concurrent symbol evaluations only ever see a complete
table.  A packed vector is an immutable int, and the vector cache is read
without a lock; only storing a vector takes ``_vector_lock``.
"""

from __future__ import annotations

import struct
import sys
import threading
from bisect import bisect_right
from fractions import Fraction
from math import isqrt, prod
from operator import mul

_FIELD = 64
_BIAS = 1 << (_FIELD - 1)
_WORD = _FIELD // 8
_BIAS_WORD = _BIAS.to_bytes(_WORD, sys.byteorder)
#: The words 0..8, repeated for the fields of the primes above n/9.
_SMALL_WORDS = [v.to_bytes(_WORD, sys.byteorder) for v in range(9)]
_VECTOR_CACHE_BYTES = 8 << 20

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


def _unpack(x: int, k: int) -> memoryview:
    """The k signed fields of a packed int whose fields, biased, fit."""
    bias = int.from_bytes(_BIAS_WORD * k, sys.byteorder)
    return memoryview(((x + bias) ^ bias).to_bytes(_WORD * k, sys.byteorder)).cast("q")


class FactorialLedger:
    """Extendable table of n! as packed prime-exponent vectors."""

    def __init__(self, initial_limit: int = 256):
        self._grow_lock = threading.Lock()
        self._limit = max(4, initial_limit)
        self._primes = _sieve(self._limit)
        self._vector_lock = threading.Lock()
        self._vectors = {}          # n -> packed exponents of n!
        self._vector_bytes = 0

    def _primes_covering(self, n: int) -> list:
        """The published prime table, grown to cover n."""
        if n > self._limit:
            if n > MAX_FACTORIAL:
                raise ValueError(f"cannot factor {n}!: above the bound {MAX_FACTORIAL}")
            with self._grow_lock:
                if n > self._limit:
                    new_limit = min(max(n, 2 * self._limit), MAX_FACTORIAL)
                    self._primes = _sieve(new_limit)   # grow, then publish
                    self._limit = new_limit
        return self._primes

    def primes_upto(self, n: int) -> list:
        primes = self._primes_covering(n)
        # The published list may extend beyond n.
        return primes[:bisect_right(primes, n)]

    def _vector(self, n: int) -> int:
        """The packed exponents of n!, one field per prime <= n."""
        vec = self._vectors.get(n)
        if vec is not None:
            return vec
        primes = self._primes_covering(n)
        k = bisect_right(primes, n)
        # n // p counts p exactly for p*p > n; at most 8 when also p > n/9
        root = bisect_right(primes, isqrt(n), 0, k)
        start = max(root, bisect_right(primes, n // 9, 0, k))
        low = [prime_exponent_in_factorial(n, p) for p in primes[:root]]
        low += map(n.__floordiv__, primes[root:start])
        words = [struct.pack(f"{len(low)}q", *low)]
        for v in range(8, 0, -1):
            # the primes in (n // (v+1), n // v] divide n! v times
            end = bisect_right(primes, n // v, 0, k)
            if end > start:
                words.append(_SMALL_WORDS[v] * (end - start))
                start = end
        vec = int.from_bytes(b"".join(words), sys.byteorder)
        size = _WORD * k
        with self._vector_lock:
            if self._vector_bytes + size > _VECTOR_CACHE_BYTES:
                self._vectors.clear()
                self._vector_bytes = 0
            self._vectors[n] = vec
            self._vector_bytes += size
        return vec

    def _combine(self, terms):
        """(primes, fields): fields[i] is the exponent of primes[i] in
        prod_i (n_i!)**c_i for terms = [(n_i, c_i)], up to the largest n_i
        with a nonzero merged weight."""
        weights = {}
        for n, c in terms:
            if n < 0:
                raise ValueError("factorial of a negative number")
            weights[n] = weights.get(n, 0) + c
        # |every exponent| <= sum |c_n| e_2(n!), e_2(n!) = n - popcount(n)
        if sum(abs(c) * (n - n.bit_count()) for n, c in weights.items()) >= _BIAS:
            raise ValueError(f"factorial exponents out of the {_FIELD}-bit field range")
        acc, top, cached = 0, 1, self._vectors
        for n, c in weights.items():
            if c:
                vec = cached.get(n)
                acc += c * (self._vector(n) if vec is None else vec)
                if n > top:
                    top = n
        # Read the table after any growth above, so it covers top.
        primes = self._primes
        k = bisect_right(primes, top)
        return primes, _unpack(acc, k)

    def combined_exponents(self, terms) -> dict:
        """Exponents of prod_i (n_i!)**c_i for terms = [(n_i, c_i)], as
        {prime: nonzero exponent}."""
        primes, fields = self._combine(terms)
        return {p: e for p, e in zip(primes, fields) if e}

    def sqrt_factorial_quotient(self, terms):
        """Split sqrt(prod_i (n_i!)**c_i) into (rational, squarefree radicand).

        Returns (r, q) with the exact value equal to r*sqrt(q), r a positive
        Fraction and q a squarefree positive int.
        """
        num, den, rad = [], [], []
        primes, fields = self._combine(terms)
        for p, e in zip(primes, fields):
            # e = 2 h + odd with odd in {0, 1}: p**h to num or den, odd to rad
            if e > 1:
                num.append(p ** (e >> 1))
            elif e < 0:
                den.append(p ** ((1 - e) >> 1))
            if e & 1:
                rad.append(p)
        return Fraction(_product(num), _product(den)), _product(rad)


def _product(factors: list) -> int:
    """Product of ints: ``math.prod`` over runs of 64 factors, whose running
    product stays short, then a balanced tree over the runs, adjacent pairs
    level by level, so the big multiplications meet operands of like size.
    (On products of primes near 10 bits each, the tree overtakes one
    running product near 500 factors.)"""
    if len(factors) <= 64:
        return prod(factors)
    factors = [prod(factors[i:i + 64]) for i in range(0, len(factors), 64)]
    while len(factors) > 1:
        factors = list(map(mul, factors[::2], factors[1::2] + [1]))
    return factors[0]


DEFAULT_LEDGER = FactorialLedger()
