"""Exact Wigner 3j/6j/9j/15j/3nj symbols over big-rational arithmetic.

Every exact sum goes through one kernel, :func:`_nest`, which evaluates a
nested sum t_0 + n_0/d_0 (t_1 + n_1/d_1 (... + n_{k-1}/d_{k-1} t_k)) in
plain ints: by Horner's rule for short sums and by binary splitting for
long ones, each merge cancelling one common factor.  The result need not
be in lowest terms: a caller makes one Fraction of it or divides it out.

3j and 6j symbols evaluate to closed :class:`SqrtRational` form via their
single-sum formulas: every t_i is 1 and n_i / d_i is the ratio of
consecutive terms; the first term, a factorial quotient, enters the
square-root prefactor squared, so the ledger assembles both prime-wise in
one call.  Every sum of products of 6j over an intermediate spin x goes
through :func:`_chain_series`: 9j, 15j and first-kind 3nj symbols, and the
pentagon and orthogonality left sides.  Each caller writes every 6j of its
chain as {a b x; d e f}, x in slot c: the product of four triangle
coefficients and an integer Racah sum R(x).  A triad with x occurs in
exactly two 6j of a term, so its triangle coefficient enters squared and
rational; the triads without x give the value one square root, taken
once, into which the squared coefficients of the lowest x enter squared:
one ledger call per chain.  Each R starts from one Racah term when x
starts at the 6j's own bound and from direct sums at the two lowest x
otherwise; every later x comes from the Schulten-Gordon three-term
recurrence in x, over exact ints, whose division must leave no
remainder.  The chain terms t_i and the ratios n_i / d_i of the squared
coefficients at consecutive x go to the same kernel.  No symbol value is cached, and no
value depends on a floating-point working precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb, gcd, prod

from .errors import InternalConsistencyError
from .halfint import HalfInt, halfint_sum, projection_ok, triad_allowed, triad_ok
from .primefac import DEFAULT_LEDGER
from .sqrtrat import SqrtRational

# ----------------------------------------------------------------------
# Nested sums
# ----------------------------------------------------------------------

#: Most steps :func:`_nest` takes by Horner's rule, whose cost grows as the
#: square of the sum's length; binary splitting, in leaves of _LEAF steps,
#: stays close to linear but costs more per step.  Timed on 3j and 6j sums
#: with the Fraction made from each (CPython 3.11, 2-vCPU VM, interleaved
#: runs), it breaks even near 180 steps on 3j and 150 on 6j, and takes 0.9
#: (3j) and 0.8 (6j) of Horner's time at 192 steps, about 0.4 at 512 and
#: under 0.2 at 1600.  In the bench's large-spin pool, 149 of 480 3j and 162 of 200 6j
#: have windows of 192 steps or more; the fig4 study has none over 30.
_HORNER, _LEAF = 192, 32

#: :data:`_HORNER` for the 9j, 15j and 3nj chain sums, whose terms are
#: products of 6j Racah sums, up to thousands of bits each, not 1: on the
#: bench's 15j (about 105 steps) binary splitting from 32 steps took 0.4
#: of Horner's time per symbol, and 16, 32 and 64 steps timed the same.
_CHAIN_HORNER = 32


def _nest(ts, ns, ds, horner):
    """t_0 + n_0/d_0 (t_1 + n_1/d_1 (... + n_{k-1}/d_{k-1} t_k)), k = len(ns),
    as plain ints (num, den), not always in lowest terms: the sum of the
    terms t_i prod_{j<i} n_j/d_j.  Below ``horner`` steps it runs
    :func:`_horner` on all k steps, whose integers grow by one factor per
    step; above, :func:`_split` gives the same fraction in smaller
    integers.  Callers pass :data:`_HORNER` or :data:`_CHAIN_HORNER`."""
    if len(ns) < horner:
        return _horner(ts[:-1], ns, ds, ts[-1])
    p, q, r = _split(0, len(ns), ts, ns, ds)
    return p * ts[-1] + q, r


def _horner(ts, ns, ds, num=0):
    """Horner's rule over steps of :func:`_nest` given as equal-length
    columns, last step first, from (num, 1): a step is
    (num, den) <- (n num + t d den, d den)."""
    den = 1
    for t, n, d in zip(reversed(ts), reversed(ns), reversed(ds)):
        den *= d
        # every t is 1 in a 3j or 6j sum: skip that product of long ints
        num = n * num + (den if t == 1 else t * den)
    return num, den


def _split(lo, hi, ts, ns, ds):
    """Binary splitting (Haible and Papanikolaou, 1998) of the Horner steps
    lo..hi-1 of :func:`_nest`.  Step i is v <- M_i v on v = (num, den), with
    M_i = [[n_i, t_i d_i], [0, d_i]]; (p, q, r) is proportional to
    M_lo ... M_{hi-1} = [[p, q], [0, r]], so that over all k steps the
    nested sum is (p t_k + q) / r.  A leaf is :func:`_horner` from 0, with
    p the product of its n_i.  Only the ratio is used, so a merge of
    (p1, q1, r1) and (p2, q2, r2) into (p1 p2, p1 q2 + q1 r2, r1 r2) first
    divides p1 and r2 by g = gcd(p1, r2), which divides all three: a gcd
    of two factors, not of the three full-size products, and the triple is
    not reduced further.  On a 6j window of 1577 steps r has 1270 bits
    where Horner's den has 60150."""
    if hi - lo <= _LEAF:
        leaf = ns[lo:hi]
        return (prod(leaf), *_horner(ts[lo:hi], leaf, ds[lo:hi]))
    mid = (lo + hi) // 2
    p1, q1, r1 = _split(lo, mid, ts, ns, ds)
    p2, q2, r2 = _split(mid, hi, ts, ns, ds)
    g = gcd(p1, r2)
    p1, r2 = p1 // g, r2 // g
    return p1 * p2, p1 * q2 + q1 * r2, r1 * r2


# ----------------------------------------------------------------------
# 3j
# ----------------------------------------------------------------------

def wigner3j(j1, j2, j3, m1, m2, m3) -> SqrtRational:
    """Exact Wigner 3j symbol.  Invalid quantum numbers give exact 0."""
    j1, j2, j3 = HalfInt(j1), HalfInt(j2), HalfInt(j3)
    m1, m2, m3 = HalfInt(m1), HalfInt(m2), HalfInt(m3)
    if m1.twice + m2.twice + m3.twice != 0:
        return SqrtRational.zero()
    if not triad_allowed(j1, j2, j3):
        return SqrtRational.zero()
    for j, m in ((j1, m1), (j2, m2), (j3, m3)):
        if not projection_ok(m, j):
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
    ks = range(kmin, kmax)
    num, den = _nest([1] * (kmax - kmin + 1),
                     [-(a - k) * (b - k) * (c - k) for k in ks],
                     [(k + 1) * (d + k + 1) * (e + k + 1) for k in ks], _HORNER)
    return head, -num if kmin % 2 else num, den


# ----------------------------------------------------------------------
# 6j
# ----------------------------------------------------------------------

def wigner6j(a, b, c, d, e, f) -> SqrtRational:
    """Exact 6j symbol {a b c; d e f} via the Racah single sum, whose first
    term enters the square root of the four triangle coefficients squared:
    one ledger call.

    Returns exact 0 when any of the four coupled triads
    (a,b,c), (a,e,f), (d,b,f), (d,e,c) fails.
    """
    six = tuple(HalfInt(x).twice for x in (a, b, c, d, e, f))
    ta, tb, tc, td, te, tf = six
    triads = ((ta, tb, tc), (ta, te, tf), (td, tb, tf), (td, te, tc))
    if not all(triad_ok(*tri) for tri in triads):
        return SqrtRational.zero()
    head, num, den = _racah_series(*six)
    # sqrt(deltas) * head = sqrt(deltas * head**2), head > 0
    rat, rad = DEFAULT_LEDGER.sqrt_factorial_quotient(
        [t for tri in triads for t in _delta_terms(*tri)] + [(n, 2 * c) for n, c in head])
    return SqrtRational(1, Fraction(num, den) * rat, rad)


def _delta_terms(ta, tb, tc):
    """Factorial terms of the squared triangle coefficient (twice values)
    Delta(abc)^2 = (a+b-c)! (a-b+c)! (-a+b+c)! / (a+b+c+1)!."""
    return [((ta + tb - tc) // 2, 1), ((ta - tb + tc) // 2, 1),
            ((-ta + tb + tc) // 2, 1), ((ta + tb + tc) // 2 + 1, -1)]


def _racah_first(ta, tb, tc, td, te, tf):
    """(tsum, psum, zmin, head) of the Racah sum of {a b c; d e f} (twice
    values), sum_z (-1)^z (z+1)! / prod[(z-T_i)! (P_j-z)!]: its four T_i
    and three P_j, its lowest z = max T_i and the factorial terms of the
    term there."""
    tsum = ((ta + tb + tc) // 2, (ta + te + tf) // 2,
            (td + tb + tf) // 2, (td + te + tc) // 2)
    psum = ((ta + tb + td + te) // 2, (tb + tc + te + tf) // 2,
            (ta + tc + td + tf) // 2)
    zmin = max(tsum)
    head = ([(zmin + 1, 1)] + [(zmin - t, -1) for t in tsum]
            + [(p - zmin, -1) for p in psum])
    return tsum, psum, zmin, head


def _racah_series(ta, tb, tc, td, te, tf):
    """The Racah sum of {a b c; d e f} (twice values) as (head, num, den):
    the factorial terms of the first term (:func:`_racah_first`) and the
    ints with num/den = (-1)^zmin (1 + r_zmin (1 + r_zmin+1 (1 + ...))),
    r_z the ratio of the terms at z+1 and z, by :func:`_nest`.  The window
    max T_i <= z <= min P_j is never empty: each P_j - T_i is the excess
    a+b-c of one of the four triads, which must be allowed."""
    (t1, t2, t3, t4), (p1, p2, p3), zmin, head = _racah_first(ta, tb, tc, td, te, tf)
    zmax = min(p1, p2, p3)
    zs = range(zmin, zmax)
    num, den = _nest([1] * (zmax - zmin + 1),
                     [-(z + 2) * (p1 - z) * (p2 - z) * (p3 - z) for z in zs],
                     [(z + 1 - t1) * (z + 1 - t2) * (z + 1 - t3) * (z + 1 - t4) for z in zs],
                     _HORNER)
    return head, -num if zmin % 2 else num, den


def _multinomial(head) -> int:
    """The first Racah term without its sign, (z+1) z! / prod k_i!, from
    its factorial terms [(z+1, 1), (k_1, -1), ..., (k_7, -1)]: the seven
    k_i add up to z, so it is (z+1) times a product of binomials."""
    ((top, _), *rest) = head
    value, z = top, top - 1
    for k, _ in rest:
        value *= comb(z, k)
        z -= k
    return value


def _racah_int(six):
    """The Racah sum of a 6j (twice values) as an int."""
    head, num, den = _racah_series(*six)
    r, rem = divmod(_multinomial(head) * num, den)
    if rem:
        raise InternalConsistencyError(f"Racah sum not an integer: {six}")
    return r


# ----------------------------------------------------------------------
# 6j chains
# ----------------------------------------------------------------------

#: Marks the summation spin x in the twice-value 6-tuples of a chain.
X = None

def _chain_series(sixjs, weight):
    """The terms of sum_x weight(x) prod_i {6j_i}(x) over the summation spin
    x, in the columns :func:`_nest` reads.

    ``sixjs`` holds each 6j of the chain as a twice-value 6-tuple
    {a b x; d e f}: :data:`X` in slot c and in no other slot, which every
    caller reaches by the 6j symmetries.  ``weight(tx)`` is the integer
    phase times 2x+1.  Each 6j is Delta(abx) Delta(dex) Delta(aef)
    Delta(dbf) R(x), R the integer Racah sum.  The triads with x must pair
    up (as a multiset) across the chain, so the product of their triangle
    coefficients is the rational D(x) = prod over pairs Delta^2(p, q, x).

    Returns (pre, xs, ts, ns, ds): xs are the twice values of x in the
    window, where every triad with x is allowed, and the chain sum is pre
    times the nested sum of ts, ns and ds, so the term of xs[i] is
    pre * ts[i] * prod_{k < i} ns[k] / ds[k].  pre is the square root of the
    triads without x times D(lo), one ledger call; ts[i] is the weight
    times prod R(x), an int; ns[k] / ds[k] = D(x_k+1) / D(x_k), a small
    ratio.  Each R is stepped in x by :func:`_racah_run`, from one Racah
    term or from direct sums at the two lowest x.  An empty window gives
    (0, [], [], [], []).
    """
    forms, fixed, xpairs = [], [], []
    for six in sixjs:
        if six[2] is not X or six.count(X) != 1:
            raise InternalConsistencyError(f"chain 6j without x in slot c alone: {six}")
        a, b, _, d, e, f = six
        forms.append((a, b, d, e, f))
        fixed += ((a, e, f), (d, b, f))
        xpairs += (tuple(sorted((a, b))), tuple(sorted((d, e))))
    xpairs.sort()
    pairs = xpairs[::2]
    if pairs != xpairs[1::2]:
        raise InternalConsistencyError(f"chain triads with x do not pair up: {xpairs}")
    lo = max(abs(p - q) for p, q in pairs)
    hi = min(p + q for p, q in pairs)
    if lo > hi or len({(p + q) % 2 for p, q in pairs}) > 1 or not all(
            triad_ok(*tri) for tri in fixed):
        return SqrtRational.zero(), [], [], [], []

    xs = range(lo, hi + 1, 2)
    ts = [weight(tx) for tx in xs]
    for form in forms:
        for i, r in enumerate(_racah_run(*form, lo, hi)):
            ts[i] *= r
    # Delta^2(p, q, x) / Delta^2(p, q, x-1), x-1 >= |p-q| and x <= p+q
    ns = [prod(tx * tx - (p - q) ** 2 for p, q in pairs) for tx in xs[1:]]
    ds = [prod((p + q + 2) ** 2 - tx * tx for p, q in pairs) for tx in xs[1:]]
    # sqrt(fixed) * D(lo) = sqrt(fixed * D(lo)**2), D(lo) > 0
    pre = SqrtRational(1, *DEFAULT_LEDGER.sqrt_factorial_quotient(
        [t for tri in fixed for t in _delta_terms(*tri)]
        + [(n, 2 * c) for p, q in pairs for n, c in _delta_terms(p, q, lo)]))
    return pre, xs, ts, ns, ds


def _racah_run(a, b, d, e, f, lo, hi):
    """[R(x) for x = lo, lo+1, ..., hi] for the Racah sum R of {a b x; d e f}
    (twice values, every x in the 6j's window).  Every R past the first
    two comes from the Schulten-Gordon three-term recurrence in x
    (J. Math. Phys. 16 (1975) 1961), divided by the 6j's triangle
    coefficients and scaled by 32, so that in twice values (A = 2a,
    X = 2x, and [A] = A(A+2) = 4a(a+1)) every coefficient is an int:

        X [(X+2)^2 - (A-B)^2] [(X+2)^2 - (D-E)^2] R(x+1)
        + 2 (X+1) ([X]([A]+[B]-[X]) + [D]([X]+[A]-[B]) + [E]([X]-[A]+[B])
                   - 2 [X][F]) R(x)
        + (X+2) [(A+B+2)^2 - X^2] [(D+E+2)^2 - X^2] R(x-1) = 0.

    The first coefficient is positive for x >= lo > 0, and the division by
    it must be exact.  When lo is the 6j's own bound max(|a-b|, |d-e|) > 0,
    the triad (a, b, x) or (d, e, x) has excess 0 at x = lo, so R(lo) is
    one term, (-1)^z (z+1) times a multinomial, and R(lo-1) = 0 (a term
    there would need a negative factorial): the run starts from that one
    term and steps to R(lo+1) like any other x.  Otherwise R(lo) and
    R(lo+1) are summed directly."""
    if lo and lo == max(abs(a - b), abs(d - e)):
        *_, z, head = _racah_first(a, b, lo, d, e, f)
        first = _multinomial(head)
        run, start = [0, -first if z % 2 else first], lo
    else:
        run = [_racah_int((a, b, lo, d, e, f))]
        if hi > lo:
            run.append(_racah_int((a, b, lo + 2, d, e, f)))
        start = lo + 2
    sa, sb, sd, se, sf = (t * (t + 2) for t in (a, b, d, e, f))
    ab, de = (a - b) ** 2, (d - e) ** 2
    ab_top, de_top = (a + b + 2) ** 2, (d + e + 2) ** 2
    for tx in range(start, hi, 2):
        sx, up = tx * (tx + 2), (tx + 2) ** 2
        lead = tx * (up - ab) * (up - de)
        mid = 2 * (tx + 1) * (sx * (sa + sb - sx) + sd * (sx + sa - sb)
                              + se * (sx - sa + sb) - 2 * sx * sf)
        tail = (tx + 2) * (ab_top - tx * tx) * (de_top - tx * tx)
        r, rem = divmod(-(mid * run[-1] + tail * run[-2]), lead)
        if rem:
            raise InternalConsistencyError(
                f"6j recurrence not exact at twice x = {tx + 2}: {(a, b, d, e, f)}")
        run.append(r)
    return run[1:] if start == lo else run


def _chain_value(pre, xs, ts, ns, ds):
    """The chain sum of :func:`_chain_series`, by :func:`_nest`, with one
    Fraction at the end."""
    if not ts:
        return SqrtRational.zero()
    return pre * Fraction(*_nest(ts, ns, ds, _CHAIN_HORNER))


def _chain_sum(sixjs, weight):
    """Exact sum_x weight(x) prod_i {6j_i}(x) as a SqrtRational; see
    :func:`_chain_series`."""
    return _chain_value(*_chain_series(sixjs, weight))


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
        """Every row and column triad holds (:meth:`triads`, read in twice
        values straight from the grid); checked once per symbol."""
        return self._valid

    @cached_property
    def _valid(self) -> bool:
        t = [getattr(self, slot).twice for slot in _GRID_SLOTS]
        return (all(triad_ok(*t[i:i + 3]) for i in (0, 3, 6))
                and all(triad_ok(*t[i::3]) for i in (0, 1, 2)))

    def r_total(self) -> HalfInt:
        return halfint_sum([getattr(self, s) for s in _GRID_SLOTS])

    def as_chain(self) -> "Symbol3nj":
        """The n = 3 first-kind 3nj symbol with the same six triads, whose
        value times (-1)^R is this 9j: rows j = (s, j1, j2),
        k = (j24, j5, j34), l = (j13, j12, j4), this symbol's HalfInts."""
        return Symbol3nj._of_rows((self.s, self.j1, self.j2), (self.j24, self.j5, self.j34),
                                  (self.j13, self.j12, self.j4))


@dataclass
class Wigner9jResult:
    """A 9j value and the pivot of its chain.  ``terms`` lists each signed
    chain term (phase and 2x+1 included) as [(x: HalfInt, SqrtRational)];
    it is made from the chain's integer terms when first read, so a caller
    that reads only ``value`` builds no per-term Fraction."""

    value: SqrtRational
    pivot: str
    series: tuple = field(default=(None, (), (), (), ()), repr=False, compare=False)

    @cached_property
    def terms(self) -> list:
        pre, xs, ts, ns, ds = self.series
        trace, q = [], Fraction(1)
        for tx, t, n, d in zip(xs, ts, (1, *ns), (1, *ds)):
            q *= Fraction(n, d)
            trace.append((HalfInt.from_twice(tx), pre * (t * q)))
        return trace


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
        return Wigner9jResult(SqrtRational.zero(), pivot)

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
    # {g31 g32 g33; x g11 g21}, times the pivot's phase; each 6j is written
    # with x in slot c by the 6j symmetries (permuting columns, and
    # exchanging upper and lower spins in two columns)
    sixjs = ((t[0][0], t[2][2], X, t[1][2], t[0][1], t[0][2]),
             (t[1][0], t[2][1], X, t[0][1], t[1][2], t[1][1]),
             (t[2][1], t[1][0], X, t[0][0], t[2][2], t[2][0]))
    series = _chain_series(sixjs, lambda tx: (-phase if tx % 2 else phase) * (tx + 1))
    return Wigner9jResult(_chain_value(*series), pivot, series)


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
        j = tuple(map(HalfInt, self.j))
        k = tuple(map(HalfInt, self.k))
        l = tuple(map(HalfInt, self.l))
        if not (len(j) == len(k) == len(l)):
            raise ValueError("rows must have equal length")
        if len(j) < 3:
            raise ValueError("first-kind 3nj symbols need n >= 3")
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "l", l)

    @classmethod
    def _of_rows(cls, j: tuple, k: tuple, l: tuple) -> "Symbol3nj":
        """A symbol from rows that already are equal tuples of HalfInt of
        length n >= 3, such as a symmetry image's, without
        :meth:`__post_init__`'s conversion and checks."""
        sym = object.__new__(cls)
        object.__setattr__(sym, "j", j)
        object.__setattr__(sym, "k", k)
        object.__setattr__(sym, "l", l)
        return sym

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
        return Symbol3nj._of_rows(tuple(ring[:n]), tuple(ring[n:]), l)

    def rows_exchanged(self) -> "Symbol3nj":
        return Symbol3nj._of_rows(self.k, self.j, self.l)

    def reflected(self) -> "Symbol3nj":
        """The 2n-cycle run backwards from j_1: j' = (j_1, k_n, ..., k_2),
        k' = (k_1, j_n, ..., j_2), l' = (l_n, ..., l_1); the same triads,
        so a symmetry of the symbol."""
        return Symbol3nj._of_rows(self.j[:1] + self.k[:0:-1], self.k[:1] + self.j[:0:-1],
                                  self.l[::-1])


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
    return _chain_sum(sixjs, weight)
