"""Exact Wigner 3j/6j/9j/15j/3nj symbols over big-rational arithmetic.

3j symbols evaluate to closed :class:`SqrtRational` form via the single-sum
formula: the sum, like the 6j Racah sum, runs on the ratio of consecutive
terms in plain ints (Horner's rule, or binary splitting with gcd-reduced
products for long windows) and makes one Fraction at the end; its first
term, a factorial quotient, enters the square-root prefactor squared, so
the ledger assembles both prime-wise in one call.  Every 6j-based value
goes through one engine, :func:`_chain_sum`, which sums products of 6j
over an intermediate spin x: 9j, 15j and first-kind 3nj symbols, the
pentagon and orthogonality left sides, and the standalone 6j as a chain of
one symbol with no x (a single term).  A triad with x occurs in exactly two
6j of a term, so its triangle coefficient enters squared and rational; the
triads without x give the value one square root, taken once, into which
the factorial part of the lowest x enters squared: one ledger call per
chain.  Each later x steps that factorial part by a small integer ratio
and costs one Fraction.  No symbol value is cached, and no value depends
on a floating-point working precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

from .errors import InternalConsistencyError
from .halfint import HalfInt, halfint_sum, triad_allowed
from .primefac import DEFAULT_LEDGER
from .sqrtrat import SqrtRational

# ----------------------------------------------------------------------
# 3j
# ----------------------------------------------------------------------

#: Most terms a 3j or 6j window sums by Horner's rule, whose cost grows as
#: the square of the window; binary splitting, in leaves of _LEAF terms,
#: stays close to linear but costs more per term.  Timed with the Fraction
#: made from each sum (CPython 3.11, 2-vCPU VM), it breaks even near 350
#: terms on 6j and 440 on 3j, takes 0.8 of Horner's time at 512 and 0.5 at
#: 1000.  Only about one 3j and one 6j in 34 of the bench's large-spin
#: symbols fall between 350 and 512, so a lower switch gains nothing
#: measurable.
_HORNER, _LEAF = 512, 32


def _split(lo, hi, ratio):
    """Binary splitting of Horner's step v <- M(z) v, M(z) = [[-b, a], [0, a]]
    with (a, b) = ratio(z): (p, q, r) proportional to M(lo) ... M(hi-1) =
    [[p, q], [0, r]], so that (p + q) / r equals Horner's num / den from
    v = (1, 1).  Only that ratio is used, so each merged triple is divided
    by its gcd: on a 1577-term 6j window, r has 388 bits where Horner's
    den has 60150."""
    if hi - lo <= _LEAF:
        p, q, r = 1, 0, 1
        for z in range(hi - 1, lo - 1, -1):
            a, b = ratio(z)
            p, q, r = -b * p, a * r - b * q, a * r
        return p, q, r
    mid = (lo + hi) // 2
    p1, q1, r1 = _split(lo, mid, ratio)
    p2, q2, r2 = _split(mid, hi, ratio)
    p, q, r = p1 * p2, p1 * q2 + q1 * r2, r1 * r2
    g = gcd(p, q, r)
    return p // g, q // g, r // g


def wigner3j(j1, j2, j3, m1, m2, m3) -> SqrtRational:
    """Exact Wigner 3j symbol.  Invalid quantum numbers give exact 0."""
    j1, j2, j3 = HalfInt(j1), HalfInt(j2), HalfInt(j3)
    m1, m2, m3 = HalfInt(m1), HalfInt(m2), HalfInt(m3)
    if m1.twice + m2.twice + m3.twice != 0:
        return SqrtRational.zero()
    if not triad_allowed(j1, j2, j3):
        return SqrtRational.zero()
    for j, m in ((j1, m1), (j2, m2), (j3, m3)):
        if abs(m.twice) > j.twice or (j.twice - m.twice) % 2 != 0:
            return SqrtRational.zero()

    t1, t2, t3 = j1.twice, j2.twice, j3.twice
    u1, u2, u3 = m1.twice, m2.twice, m3.twice
    a = (t1 + t2 - t3) // 2
    b = (t1 - u1) // 2
    c = (t2 + u2) // 2
    d = (t3 - t2 + u1) // 2
    e = (t3 - t1 - u2) // 2

    head, num, den = _threej_series(a, b, c, d, e)
    if num == 0:
        return SqrtRational.zero()

    # sqrt(pre) * head = sqrt(pre * head**2), head > 0: one ledger call
    pre = [
        (a, 1), ((t1 - t2 + t3) // 2, 1), ((-t1 + t2 + t3) // 2, 1),
        ((t1 + t2 + t3) // 2 + 1, -1),
        ((t1 + u1) // 2, 1), ((t1 - u1) // 2, 1),
        ((t2 + u2) // 2, 1), ((t2 - u2) // 2, 1),
        ((t3 + u3) // 2, 1), ((t3 - u3) // 2, 1),
    ] + [(n, 2 * c) for n, c in head]
    rat, rad = DEFAULT_LEDGER.sqrt_factorial_quotient(pre)
    sign = 1 if num > 0 else -1
    if ((t1 - t2 - u3) // 2) % 2:
        sign = -sign
    return SqrtRational(sign, Fraction(abs(num), den) * rat, rad)


def _threej_series(a, b, c, d, e):
    """The 3j sum sum_k (-1)^k / [k! (a-k)! (b-k)! (c-k)! (d+k)! (e+k)!] as
    (head, num, den), as in :func:`_racah_series`, over the window
    max(0, -d, -e) <= k <= min(a, b, c), never empty for a valid symbol."""
    kmin = max(0, -d, -e)
    kmax = min(a, b, c)
    head = [(kmin, -1), (a - kmin, -1), (b - kmin, -1),
            (c - kmin, -1), (d + kmin, -1), (e + kmin, -1)]
    if kmax - kmin < _HORNER:
        num = den = 1
        for k in range(kmax - 1, kmin - 1, -1):
            step = (k + 1) * (d + k + 1) * (e + k + 1) * den
            num, den = step - (a - k) * (b - k) * (c - k) * num, step
    else:
        p, q, den = _split(kmin, kmax, lambda k: (
            (k + 1) * (d + k + 1) * (e + k + 1), (a - k) * (b - k) * (c - k)))
        num = p + q
    return head, -num if kmin % 2 else num, den


# ----------------------------------------------------------------------
# 6j
# ----------------------------------------------------------------------

def wigner6j(a, b, c, d, e, f) -> SqrtRational:
    """Exact 6j symbol {a b c; d e f} via the Racah single sum: a chain of
    one 6j with no summation spin.

    Returns exact 0 when any of the four coupled triads
    (a,b,c), (a,e,f), (d,b,f), (d,e,c) fails.
    """
    six = tuple(HalfInt(x).twice for x in (a, b, c, d, e, f))
    return _chain_sum((six,), lambda tx: 1)[0]


def _delta_terms(ta, tb, tc):
    """Factorial terms of the squared triangle coefficient (twice values)
    Delta(abc)^2 = (a+b-c)! (a-b+c)! (-a+b+c)! / (a+b+c+1)!."""
    return [((ta + tb - tc) // 2, 1), ((ta - tb + tc) // 2, 1),
            ((-ta + tb + tc) // 2, 1), ((ta + tb + tc) // 2 + 1, -1)]


def _racah_series(ta, tb, tc, td, te, tf):
    """The Racah sum of {a b c; d e f} (twice values),
    sum_z (-1)^z (z+1)! / prod[(z-T_i)! (P_j-z)!], as (head, num, den): the
    factorial terms of the first term and the ints with
    num/den = (-1)^zmin (1 + r_zmin (1 + r_zmin+1 (1 + ...))), r_z the term
    ratio, summed from the top of the window down.  The window
    max T_i <= z <= min P_j is never empty: each P_j - T_i is the excess
    a+b-c of one of the four triads, which must be allowed."""
    t1, t2, t3, t4 = tsum = ((ta + tb + tc) // 2, (ta + te + tf) // 2,
                             (td + tb + tf) // 2, (td + te + tc) // 2)
    p1, p2, p3 = psum = ((ta + tb + td + te) // 2, (tb + tc + te + tf) // 2,
                         (ta + tc + td + tf) // 2)
    zmin = max(tsum)
    zmax = min(psum)
    head = ([(zmin + 1, 1)] + [(zmin - t, -1) for t in tsum]
            + [(p - zmin, -1) for p in psum])
    if zmax - zmin < _HORNER:
        num = den = 1
        for z in range(zmax - 1, zmin - 1, -1):
            step = (z + 1 - t1) * (z + 1 - t2) * (z + 1 - t3) * (z + 1 - t4) * den
            num, den = step - (z + 2) * (p1 - z) * (p2 - z) * (p3 - z) * num, step
    else:
        p, q, den = _split(zmin, zmax, lambda z: (
            (z + 1 - t1) * (z + 1 - t2) * (z + 1 - t3) * (z + 1 - t4),
            (z + 2) * (p1 - z) * (p2 - z) * (p3 - z)))
        num = p + q
    return head, -num if zmin % 2 else num, den


# ----------------------------------------------------------------------
# 6j chains
# ----------------------------------------------------------------------

#: Marks the summation spin x in the twice-value 6-tuples of a chain.
X = None


def _chain_sum(sixjs, weight):
    """Exact sum_x weight(x) prod_i {6j_i}(x) over the summation spin x.

    ``sixjs`` holds each 6j of the chain as a twice-value 6-tuple with
    :data:`X` in the one slot of x; ``weight(tx)`` is the integer phase
    times 2x+1.  Returns (value, pre, [(tx, q)]): the SqrtRational value,
    a SqrtRational pre and one rational q per x in the window (where every
    triad with x is allowed), the term of x being pre * q.  pre is the
    square root of the triads without x times the factorial part F(lo) of
    the lowest x: the Racah heads and the squared coefficients of the
    triads with x, which must pair up (as a multiset) across the chain.  q
    holds the Racah sums, the weight and F(x) / F(lo).  A chain without x
    (one standalone 6j) has the single term tx = 0.
    """
    fixed, xtri = [], []
    for a, b, c, d, e, f in sixjs:
        for tri in ((a, b, c), (a, e, f), (d, b, f), (d, e, c)):
            if X in tri:
                xtri.append(tuple(sorted(v for v in tri if v is not X)))
            else:
                fixed.append(tri)
    xtri.sort()
    pairs = xtri[::2]
    if pairs != xtri[1::2]:
        raise InternalConsistencyError(f"chain triads with x do not pair up: {xtri}")
    lo = max((abs(p - q) for p, q in pairs), default=0)
    hi = min((p + q for p, q in pairs), default=0)
    if lo > hi or len({(p + q) % 2 for p, q in pairs}) > 1 or not all(
            (a + b + c) % 2 == 0 and abs(a - b) <= c <= a + b for a, b, c in fixed):
        return SqrtRational.zero(), SqrtRational.zero(), []

    terms = []
    for tx in range(lo, hi + 1, 2):
        facts = [t for p, q in pairs for t in _delta_terms(p, q, tx)]
        num = den = 1
        for s in sixjs:
            head, n6, d6 = _racah_series(*(tx if v is X else v for v in s))
            facts += head
            num *= n6
            den *= d6
        if tx == lo:
            # sqrt(fixed) * F(lo) = sqrt(fixed * F(lo)**2), F(lo) > 0
            pre = SqrtRational(1, *DEFAULT_LEDGER.sqrt_factorial_quotient(
                [t for tri in fixed for t in _delta_terms(*tri)]
                + [(n, 2 * c) for n, c in facts]))
            fq = 1
        else:
            fq *= _factorial_step(prev, facts)
        prev = facts
        terms.append((tx, Fraction(weight(tx) * num, den) * fq))
    return pre * sum(q for _, q in terms), pre, terms


def _factorial_step(old, new):
    """prod (m!)^c / prod (n!)^c as a Fraction for factorial-term lists
    old = [(n, c)] and new = [(m, c)] of consecutive x, which pair up term
    by term; m!/n! is then the product of the few ints between n and m."""
    if len(old) != len(new):
        raise InternalConsistencyError(f"factorial terms do not pair up: {old} -> {new}")
    num, den = [], []
    for (n, c), (m, k) in zip(old, new):
        if c != k:
            raise InternalConsistencyError(f"factorial terms do not pair up: {old} -> {new}")
        if m != n:
            if m < n:
                n, m, c = m, n, -c
            f = m if m == n + 1 else prod(range(n + 1, m + 1))
            (num if c > 0 else den).append(f ** abs(c))
    return Fraction(prod(num), prod(den))


# ----------------------------------------------------------------------
# 9j
# ----------------------------------------------------------------------

_GRID_SLOTS = ("j1", "j2", "j12", "s", "j4", "j34", "j13", "j24", "j5")

#: The four 6j decompositions whose summation variable is Clebsch-Gordan
#: coupled to the (2,1) entry.  Keys name the grid entry the summation
#: variable pairs with; "j34" is kept as an alias of "j5" for compatibility
#: with the conventional naming of the fourth choice.
PIVOTS = ("j24", "j2", "j12", "j5")


@dataclass(frozen=True)
class Symbol9j:
    """A 9j symbol in the grid layout {j1 j2 j12; s j4 j34; j13 j24 j5}."""

    j1: HalfInt
    j2: HalfInt
    j12: HalfInt
    s: HalfInt
    j4: HalfInt
    j34: HalfInt
    j13: HalfInt
    j24: HalfInt
    j5: HalfInt

    @classmethod
    def from_values(cls, *values) -> "Symbol9j":
        if len(values) != 9:
            raise ValueError("Symbol9j needs nine spins")
        return cls(*(HalfInt(v) for v in values))

    @classmethod
    def from_twice(cls, *twice_values) -> "Symbol9j":
        return cls(*(HalfInt.from_twice(t) for t in twice_values))

    @property
    def grid(self):
        return (
            (self.j1, self.j2, self.j12),
            (self.s, self.j4, self.j34),
            (self.j13, self.j24, self.j5),
        )

    def triads(self):
        g = self.grid
        rows = [tuple(g[i]) for i in range(3)]
        cols = [tuple(g[i][j] for i in range(3)) for j in range(3)]
        return rows + cols

    def is_valid(self) -> bool:
        return all(triad_allowed(*t) for t in self.triads())

    def r_total(self) -> HalfInt:
        return halfint_sum([getattr(self, s) for s in _GRID_SLOTS])


@dataclass
class Wigner9jResult:
    value: SqrtRational
    terms: list          # [(x: HalfInt, contribution: SqrtRational)]
    pivot: str


def wigner9j(sym: Symbol9j, pivot: str = "j24") -> Wigner9jResult:
    """Exact 9j symbol as a sum of signed products of three exact 6j symbols.

    The summation variable of every available decomposition satisfies
    Clebsch-Gordan conditions with the small-slot entry s; ``pivot`` selects
    which entry it pairs with.  The value is a closed :class:`SqrtRational`
    and is identical for every pivot; ``terms`` lists each signed chain
    term (phase and 2x+1 included) by summation spin x.
    """
    canonical = "j5" if pivot == "j34" else pivot
    if canonical not in PIVOTS:
        raise ValueError(f"unknown pivot {pivot!r}; expected one of {PIVOTS} (or 'j34')")
    if not sym.is_valid():
        return Wigner9jResult(SqrtRational.zero(), [], pivot)

    g = sym.grid
    t_r = sym.r_total()
    if t_r.twice % 2 != 0:
        raise InternalConsistencyError("9j with valid triads must have integer spin sum")
    odd_r = (t_r.twice // 2) % 2 == 1

    phase = 1
    if canonical == "j2":
        g = (g[2], g[1], g[0])
        phase = -1 if odd_r else 1
    elif canonical == "j12":
        g = tuple((row[0], row[2], row[1]) for row in g)
        g = (g[2], g[1], g[0])
    elif canonical == "j5":
        g = tuple((row[0], row[2], row[1]) for row in g)
        phase = -1 if odd_r else 1

    t = [[v.twice for v in row] for row in g]
    # sum_x (-1)^(2x) d_x {g11 g12 g13; g23 g33 x}{g21 g22 g23; g12 x g32}
    # {g31 g32 g33; x g11 g21}, times the pivot's phase
    sixjs = ((t[0][0], t[0][1], t[0][2], t[1][2], t[2][2], X),
             (t[1][0], t[1][1], t[1][2], t[0][1], X, t[2][1]),
             (t[2][0], t[2][1], t[2][2], X, t[0][0], t[1][0]))
    value, pre, terms = _chain_sum(sixjs, lambda tx: (-phase if tx % 2 else phase) * (tx + 1))
    return Wigner9jResult(value, [(HalfInt.from_twice(tx), pre * q) for tx, q in terms], pivot)


# ----------------------------------------------------------------------
# 15j and general first-kind 3nj
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Symbol3nj:
    """First-kind 3nj symbol: rows j[1..n], k[1..n], l[1..n].

    The coupled triads are the two cyclic chains (j_i, l_i, j_{i+1}) and
    (k_i, l_i, k_{i+1}) closed by the cross couplings (j_n, l_n, k_1) and
    (k_n, l_n, j_1).
    """

    j: tuple
    k: tuple
    l: tuple

    def __post_init__(self):
        j = tuple(HalfInt(x) for x in self.j)
        k = tuple(HalfInt(x) for x in self.k)
        l = tuple(HalfInt(x) for x in self.l)
        if not (len(j) == len(k) == len(l)):
            raise ValueError("rows must have equal length")
        if len(j) < 3:
            raise ValueError("first-kind 3nj symbols need n >= 3")
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "l", l)

    @property
    def n(self) -> int:
        return len(self.j)

    def triads(self):
        n = self.n
        out = []
        for i in range(n - 1):
            out.append((self.j[i], self.l[i], self.j[i + 1]))
        out.append((self.j[n - 1], self.l[n - 1], self.k[0]))
        for i in range(n - 1):
            out.append((self.k[i], self.l[i], self.k[i + 1]))
        out.append((self.k[n - 1], self.l[n - 1], self.j[0]))
        return out

    def is_valid(self) -> bool:
        return all(triad_allowed(*t) for t in self.triads())

    def r_total(self) -> HalfInt:
        return halfint_sum(list(self.j) + list(self.k) + list(self.l))

    def rotated(self, shift: int = 1) -> "Symbol3nj":
        """Circular permutation along the 2n-cycle (j_1..j_n, k_1..k_n),
        with the l row shifted in step; a symmetry of the symbol.
        Shifting by n exchanges the j and k rows."""
        n = self.n
        ring = list(self.j) + list(self.k)
        shift %= 2 * n
        ring = ring[shift:] + ring[:shift]
        ls = shift % n
        l = self.l[ls:] + self.l[:ls]
        return Symbol3nj(tuple(ring[:n]), tuple(ring[n:]), l)

    def rows_exchanged(self) -> "Symbol3nj":
        return Symbol3nj(self.k, self.j, self.l)


def wigner15j(j_row, k_row, l_row) -> SqrtRational:
    """Exact first-kind 15j symbol: :func:`wigner3nj` with n = 5."""
    sym = Symbol3nj(tuple(j_row), tuple(k_row), tuple(l_row))
    if sym.n != 5:
        raise ValueError("wigner15j needs five columns")
    return wigner3nj(sym)


def wigner3nj(sym: Symbol3nj) -> SqrtRational:
    """Exact first-kind 3nj symbol as a closed :class:`SqrtRational`, via
    the cyclic 6j chain
    sum_x d_x (-1)^(R_n + (n-1) x) prod_p {j_p k_p x; k_{p+1} j_{p+1} l_p},
    whose triads without x are the symbol's own: exact 0 unless all hold."""
    n = sym.n
    j, k, l = ([v.twice for v in row] for row in (sym.j, sym.k, sym.l))
    t_r = sym.r_total().twice

    def weight(tx):
        twice_exp = t_r + (n - 1) * tx
        if twice_exp % 2 != 0:
            raise InternalConsistencyError(
                "phase exponent R_n + (n-1)x must be an integer for valid symbols"
            )
        return (-1 if (twice_exp // 2) % 2 else 1) * (tx + 1)

    sixjs = [(j[p], k[p], X, k[p + 1], j[p + 1], l[p]) for p in range(n - 1)]
    sixjs.append((j[n - 1], k[n - 1], X, j[0], k[0], l[n - 1]))
    return _chain_sum(sixjs, weight)[0]
