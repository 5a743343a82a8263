import bisect
import math
import random
import sys
import threading
from fractions import Fraction

import pytest

from wigner_asym import primefac
from wigner_asym.primefac import prime_exponent_in_factorial

from oracles import FactorialLedger


def test_reconstructed_factorials_match_iterative():
    ledger = FactorialLedger()
    for n in range(0, 2001):
        assert ledger.factorial(n) == math.factorial(n), n


def test_legendre_formula_small_cases():
    # 10! = 2^8 3^4 5^2 7
    assert prime_exponent_in_factorial(10, 2) == 8
    assert prime_exponent_in_factorial(10, 3) == 4
    assert prime_exponent_in_factorial(10, 5) == 2
    assert prime_exponent_in_factorial(10, 7) == 1
    assert prime_exponent_in_factorial(10, 11) == 0


def test_factorial_quotient_exact():
    ledger = FactorialLedger()
    # binomial(300, 137) via the ledger
    got = ledger.factorial_quotient([(300, 1), (137, -1), (163, -1)])
    assert got == Fraction(math.comb(300, 137))
    got = ledger.factorial_quotient([(10, 2), (5, -3)])
    assert got == Fraction(math.factorial(10) ** 2, math.factorial(5) ** 3)


def test_sqrt_factorial_quotient_split():
    ledger = FactorialLedger()
    rat, rad = ledger.sqrt_factorial_quotient([(6, 1)])
    # 720 = 144 * 5
    assert rat == Fraction(12) and rad == 5
    rat, rad = ledger.sqrt_factorial_quotient([(4, -1)])
    # 1/sqrt(24) = (1/12) sqrt(6)
    assert rat == Fraction(1, 12) and rad == 6
    # value check
    value = float(rat) * math.sqrt(rad)
    assert abs(value - 1 / math.sqrt(24)) < 1e-15


def test_prime_growth_is_monotonic_and_threadsafe():
    ledger = FactorialLedger(initial_limit=8)
    results = []

    def worker(n):
        results.append((n, ledger.factorial_quotient([(n, 1), (n - 1, -1)])))

    threads = [threading.Thread(target=worker, args=(n,)) for n in (50, 500, 1500, 997)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for n, value in results:
        assert value == Fraction(n)
    assert ledger.primes_upto(10) == [2, 3, 5, 7]


def naive_combined_exponents(terms) -> dict:
    """Legendre's formula per prime and per term, without the ledger."""
    n_max = max((n for n, _ in terms), default=0)
    out = {}
    for p in range(2, n_max + 1):
        if any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
            continue
        e = sum(c * prime_exponent_in_factorial(n, p) for n, c in terms)
        if e:
            out[p] = e
    return out


def test_combined_exponents_match_naive_legendre():
    rng = random.Random(4242)
    ledger = FactorialLedger(initial_limit=16)
    for _ in range(40):
        terms = [(rng.choice((0, 1, rng.randrange(2, 400))), rng.randint(-3, 3))
                 for _ in range(rng.randrange(1, 12))]
        n, c = rng.choice(terms)
        terms += [(n, -c), (n, rng.choice((1, 2)))]   # repeated n, net-zero weight
        assert ledger.combined_exponents(terms) == naive_combined_exponents(terms), terms
    # vectors cached under a 16-limit table stay aligned after it grows
    ledger = FactorialLedger(initial_limit=16)
    assert ledger.combined_exponents([(16, 1), (10, -1)]) == naive_combined_exponents(
        [(16, 1), (10, -1)])
    terms = [(1500, 2), (1499, -1), (16, -3), (1500, -1), (0, 5), (1, -4), (10, 1)]
    assert ledger.combined_exponents(terms) == naive_combined_exponents(terms)
    assert ledger.factorial_quotient(terms) == Fraction(
        1500 * math.factorial(10), math.factorial(16) ** 3)
    # terms that cancel exactly give the empty vector
    assert ledger.combined_exponents([(300, 2), (300, -1), (300, -1)]) == {}
    with pytest.raises(ValueError):
        ledger.combined_exponents([(10, 1), (-1, 1)])
    with pytest.raises(ValueError):
        ledger.factorial_exponents(-1)


def _primes_upto(n: int) -> list:
    """Primes <= n: the numbers no smaller number >= 2 divides, marked off
    multiple by multiple."""
    composite = set()
    for m in range(2, math.isqrt(n) + 1):
        composite.update(range(m * m, n + 1, m))
    return [m for m in range(2, n + 1) if m not in composite]


def test_packed_ledger_matches_legendre_at_large_n():
    """Random factorial quotients with weights +-1..+-4 and n up to 10**5,
    small n and repeated n included, against Legendre's formula prime by
    prime: the combined exponents, and where the quotient stays below
    10**4! the (rational, radicand) split too."""
    rng = random.Random(90210)
    primes = _primes_upto(10**5)
    ledger = primefac.FactorialLedger(initial_limit=16)
    for case in range(16):
        top = 10**5 if case % 2 else 10**4
        terms = [(rng.choice((rng.randrange(0, 100), rng.randrange(100, top + 1))),
                  rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)))
                 for _ in range(rng.randrange(1, 9))]
        terms.append(rng.choice(terms))
        expect = {}
        for p in primes[:bisect.bisect_right(primes, max(n for n, _ in terms))]:
            e = sum(c * prime_exponent_in_factorial(n, p) for n, c in terms)
            if e:
                expect[p] = e
        assert ledger.combined_exponents(terms) == expect, terms
        if top > 10**4:
            continue
        rat, rad = ledger.sqrt_factorial_quotient(terms)
        assert rad == math.prod(p for p, e in expect.items() if e % 2), terms
        assert rat == Fraction(math.prod(p ** (e // 2) for p, e in expect.items() if e > 0),
                               math.prod(p ** ((1 - e) // 2) for p, e in expect.items() if e < 0))


def test_over_range_combination_raises_before_any_vector():
    """Every exponent is bounded by S = sum |c| (n - popcount(n)) over the
    merged weights; S >= 2**63 raises ValueError before a vector is built,
    and S just below decodes exactly, extreme fields included."""
    ledger = primefac.FactorialLedger()
    # 4!/3! = (2!)**2, so these weights cancel exactly, with S = 6 c
    c = (2**63 - 1) // 6
    assert ledger.combined_exponents([(4, c), (3, -c), (2, -2 * c), (1, 2 * c)]) == {}
    assert ledger.sqrt_factorial_quotient([(4, c), (3, -c), (2, -2 * c), (1, 2 * c)]) == (1, 1)
    assert ledger.combined_exponents([(2, 2**63 - 1)]) == {2: 2**63 - 1}
    assert ledger.combined_exponents([(3, -(2**62)), (2, -(2**62) + 1)]) == {
        2: -(2**63) + 1, 3: -(2**62)}
    # weights of 0! and 1! add nothing to S
    assert ledger.combined_exponents([(1, 2**80), (0, -(2**90)), (5, 1)]) == {2: 3, 3: 1, 5: 1}
    ledger = primefac.FactorialLedger()
    for terms in ([(4, c + 1), (3, -c - 1), (2, -2 * c - 2), (1, 2 * c + 2)],
                  [(2, 2**63)], [(1000, 2**54)], [(10, 1), (10**6, -(2**44))]):
        for call in (ledger.combined_exponents, ledger.sqrt_factorial_quotient):
            with pytest.raises(ValueError, match="field range"):
                call(terms)
    assert ledger._vectors == {} and ledger._limit == 256


def test_vector_cache_stays_bounded_under_threads(monkeypatch):
    # a 1600-byte budget (200 fields of 8 bytes) forces the cache to empty
    # itself again and again while eight threads read and fill it
    monkeypatch.setattr(primefac, "_VECTOR_CACHE_BYTES", 1600)
    ledger = FactorialLedger(initial_limit=8)
    jobs = [[(n, 1), (n - 1, -1), (n // 2, 2), (n // 2, -2)] for n in range(100, 900, 7)]
    failures = []

    def worker(offset):
        for i in range(len(jobs)):
            terms = jobs[(i + offset) % len(jobs)]
            if ledger.factorial_quotient(terms) != terms[0][0]:
                failures.append(terms)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k * 13,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    assert sum((v.bit_length() + 7) // 8 for v in ledger._vectors.values()) <= 1600


def test_factorial_above_bound_rejected_before_sieving(monkeypatch):
    ledger = FactorialLedger()
    limit, primes = ledger._limit, ledger._primes
    n = primefac.MAX_FACTORIAL + 1
    for call in (ledger.factorial_exponents, lambda n: ledger.combined_exponents([(n, 1)])):
        with pytest.raises(ValueError, match="above the bound"):
            call(n)
    # no prime table was built for n
    assert ledger._limit == limit and ledger._primes is primes
    # doubling the table stops at the bound
    monkeypatch.setattr(primefac, "MAX_FACTORIAL", 1000)
    ledger.primes_upto(300)
    ledger.primes_upto(900)
    assert ledger._limit == 1000 and ledger._primes[-1] == 997
