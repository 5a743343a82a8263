"""3j and 6j against independent oracles.

The 3j engine is checked against Clebsch-Gordan coefficients built by
highest-weight construction, ladder lowering and Gram-Schmidt (no Racah
sum anywhere); the 6j engine is then checked against the contraction of
four 3j symbols over all projections.  The binary splitting of long
windows is checked against Horner's rule: the same head and fraction.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from wigner_asym import exact
from wigner_asym.exact import X, wigner3j, wigner6j
from wigner_asym.halfint import HalfInt
from wigner_asym.sqrtrat import SqrtRational

from oracles import nest_direct, racah_series_horner, threej_series_horner

H = HalfInt.from_twice


# ----------------------------------------------------------------------
# oracle: CG coefficients from ladder operators
# ----------------------------------------------------------------------

def cg_ladder_table(tj1: int, tj2: int) -> dict:
    """{(tj, tm): {(tm1, tm2): coefficient}} with Condon-Shortley phases."""
    pairs = [(t1, t2) for t1 in range(-tj1, tj1 + 1, 2) for t2 in range(-tj2, tj2 + 1, 2)]
    index = {p: i for i, p in enumerate(pairs)}
    built = {}

    def lowered(vec):
        out = np.zeros(len(pairs))
        for (t1, t2), i in index.items():
            amp = vec[i]
            if amp == 0.0:
                continue
            j1m1 = (tj1 / 2, t1 / 2)
            j2m2 = (tj2 / 2, t2 / 2)
            if t1 - 2 >= -tj1:
                out[index[(t1 - 2, t2)]] += amp * math.sqrt(
                    (j1m1[0] + j1m1[1]) * (j1m1[0] - j1m1[1] + 1)
                )
            if t2 - 2 >= -tj2:
                out[index[(t1, t2 - 2)]] += amp * math.sqrt(
                    (j2m2[0] + j2m2[1]) * (j2m2[0] - j2m2[1] + 1)
                )
        return out

    tjmax = tj1 + tj2
    for tj in range(tjmax, abs(tj1 - tj2) - 1, -2):
        if tj == tjmax:
            vec = np.zeros(len(pairs))
            vec[index[(tj1, tj2)]] = 1.0
        else:
            higher = [built[(tjp, tj)] for tjp in range(tj + 2, tjmax + 1, 2)]
            vec = None
            for seed in [p for p in pairs if p[0] + p[1] == tj]:
                v = np.zeros(len(pairs))
                v[index[seed]] = 1.0
                for o in higher:
                    v -= np.dot(o, v) * o
                if np.linalg.norm(v) > 1e-8:
                    vec = v / np.linalg.norm(v)
                    break
            top = max(p[0] for p in pairs if p[0] + p[1] == tj)
            if vec[index[(top, tj - top)]] < 0:
                vec = -vec
        built[(tj, tj)] = vec
        cur = vec
        for tm in range(tj, -tj, -2):
            j, m = tj / 2, tm / 2
            cur = lowered(cur) / math.sqrt((j + m) * (j - m + 1))
            built[(tj, tm - 2)] = cur
    return {
        key: {p: float(v[index[p]]) for p in pairs if abs(v[index[p]]) > 1e-14}
        for key, v in built.items()
    }


def test_3j_matches_cg_ladder_oracle():
    worst = 0.0
    for tj1, tj2 in ((1, 1), (2, 1), (2, 2), (3, 2), (4, 3), (2, 4)):
        table = cg_ladder_table(tj1, tj2)
        for (tj3, tm3), comp in table.items():
            for (tm1, tm2), cg in comp.items():
                v3j = float(wigner3j(H(tj1), H(tj2), H(tj3), H(tm1), H(tm2), H(-tm3)))
                phase = (-1) ** ((-tj1 + tj2 - tm3) // 2)
                worst = max(worst, abs(phase * math.sqrt(tj3 + 1) * v3j - cg))
    assert worst < 1e-12


def test_3j_frozen_values():
    assert wigner3j(1, 1, 0, 0, 0, 0) == SqrtRational(-1, Fraction(1, 3), 3)
    # zero-coupling reduction (j, j, 0; m, -m, 0) = (-1)^(j-m)/sqrt(2j+1)
    assert wigner3j(1, 1, 0, 1, -1, 0) == SqrtRational(1, Fraction(1, 3), 3)
    for tj in (1, 2, 5):
        for tm in range(-tj, tj + 1, 2):
            v = wigner3j(H(tj), H(tj), H(0), H(tm), H(-tm), H(0))
            sign = (-1) ** ((tj - tm) // 2)
            assert abs(float(v) - sign / math.sqrt(tj + 1)) < 1e-14


def test_3j_orthonormality_exact():
    # for fixed m3: sum over m1 of the squared 3j is exactly 1/(2 j3 + 1)
    for tj1, tj2, tj3 in ((2, 2, 2), (2, 2, 4), (3, 2, 1), (4, 3, 3)):
        for tm3 in range(-tj3, tj3 + 1, 2):
            total = Fraction(0)
            for tm1 in range(-tj1, tj1 + 1, 2):
                tm2 = -tm1 - tm3
                if abs(tm2) > tj2:
                    continue
                total += wigner3j(H(tj1), H(tj2), H(tj3), H(tm1), H(tm2), H(tm3)).value_squared()
            assert total == Fraction(1, tj3 + 1), (tj1, tj2, tj3, tm3)


def test_3j_zero_conditions():
    assert wigner3j(1, 1, 0, 1, -1, 1).is_zero         # m sum nonzero
    assert wigner3j(1, 1, 3, 0, 0, 0).is_zero          # triad fails
    assert wigner3j("1/2", 1, "1/2", "1/2", 0, 0).is_zero   # m3 parity


def test_3j_each_zero_case_is_exact_zero():
    """From the nonzero (3 2 2; 1 -1 0), each zero case gives exact 0:
    the m sum, the triangle and each projection's range alone; a parity
    failure, which the twice sums always pair with a second one; and a
    negative spin."""
    assert not wigner3j(*map(H, (6, 4, 4, 2, -2, 0))).is_zero   # twice values
    cases = [(6, 4, 4, 2, -2, 2),       # m sum 1
             (6, 4, 12, 2, -2, 0),      # j3 > j1 + j2
             (2, 4, 4, 4, -4, 0),       # |m1| > j1
             (6, 2, 4, 4, -4, 0),       # |m2| > j2
             (6, 4, 2, 4, 0, -4),       # |m3| > j3
             (6, 4, 4, 3, -3, 0),       # j1 - m1 and j2 - m2 not integers
             (6, 4, 5, 2, -2, 0),       # j1 + j2 + j3 and j3 - m3 not integers
             (6, 4, -4, 2, -2, 0)]      # negative j3
    for twice in cases:
        assert wigner3j(*map(H, twice)).is_zero, twice


def threej_ledger_free(t):
    """Racah's 3j sum with plain math.factorial fractions: an independent
    route around the prime-exponent ledger and the term-ratio recurrence.
    t holds the twice values (j1 j2 j3 m1 m2 m3) of a valid symbol.
    Returns (signed sum with the phase, squared prefactor); the 3j is
    sum * sqrt(prefactor)."""
    tj1, tj2, tj3, tm1, tm2, tm3 = t
    fact = math.factorial

    def f(twice):
        return fact(twice // 2)

    kmin = max(0, (tj2 - tj3 - tm1) // 2, (tj1 - tj3 + tm2) // 2)
    kmax = min((tj1 + tj2 - tj3) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    total = Fraction(0)
    for k in range(kmin, kmax + 1):
        tk = 2 * k
        den = (f(tk) * f(tj3 - tj2 + tk + tm1) * f(tj3 - tj1 + tk - tm2)
               * f(tj1 + tj2 - tj3 - tk) * f(tj1 - tk - tm1) * f(tj2 - tk + tm2))
        total += Fraction((-1) ** k, den)
    rad2 = Fraction(f(tj1 + tj2 - tj3) * f(tj1 - tj2 + tj3) * f(-tj1 + tj2 + tj3),
                    f(tj1 + tj2 + tj3 + 2))
    for tj, tm in ((tj1, tm1), (tj2, tm2), (tj3, tm3)):
        rad2 *= f(tj + tm) * f(tj - tm)
    phase = -1 if (tj1 - tj2 - tm3) // 2 % 2 else 1
    return phase * total, rad2


def test_3j_against_ledger_free_racah():
    # spins 100-1000; the sum starts at kmin = 0, at an even kmin > 0 and at
    # an odd kmin, whose (-1)^kmin sets the sign of the head term
    rng = random.Random(313)
    seen = {"zero": 0, "even": 0, "odd": 0}
    while min(seen.values()) < 3:
        tj1, tj2 = rng.randrange(200, 2001), rng.randrange(200, 2001)
        tj3 = rng.randrange(abs(tj1 - tj2), tj1 + tj2 + 1, 2)
        tm1, tm2 = rng.randrange(-tj1, tj1 + 1, 2), rng.randrange(-tj2, tj2 + 1, 2)
        tm3 = -tm1 - tm2
        if tj3 < 200 or abs(tm3) > tj3:
            continue
        kmin = max(0, (tj2 - tj3 - tm1) // 2, (tj1 - tj3 + tm2) // 2)
        kmax = min((tj1 + tj2 - tj3) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
        kind = "zero" if kmin == 0 else ("odd" if kmin % 2 else "even")
        if kmax - kmin > 60 or seen[kind] >= 3:
            continue   # keep the oracle quick
        t = (tj1, tj2, tj3, tm1, tm2, tm3)
        total, rad2 = threej_ledger_free(t)
        ours = wigner3j(*(H(x) for x in t))
        if total == 0:
            assert ours.is_zero, t
            continue
        assert ours.sign == (1 if total > 0 else -1), t
        assert ours.value_squared() == total * total * rad2, t
        seen[kind] += 1


# ----------------------------------------------------------------------
# oracle: 6j as a contraction of four 3j symbols
# ----------------------------------------------------------------------

def sixj_contraction_oracle(t):
    t1, t2, t3, t4, t5, t6 = t
    total = 0.0
    for tm1 in range(-t1, t1 + 1, 2):
        for tm2 in range(-t2, t2 + 1, 2):
            tm3 = -tm1 - tm2
            if abs(tm3) > t3 or (t3 - tm3) % 2:
                continue
            for tm4 in range(-t4, t4 + 1, 2):
                tm6 = tm4 + tm2
                tm5 = tm4 - tm3
                if abs(tm5) > t5 or abs(tm6) > t6:
                    continue
                if (t5 - tm5) % 2 or (t6 - tm6) % 2:
                    continue
                phase_t = (t1 - tm1) + (t2 - tm2) + (t3 - tm3) + (t4 - tm4) + (t5 - tm5) + (t6 - tm6)
                v = float(wigner3j(H(t1), H(t2), H(t3), H(-tm1), H(-tm2), H(-tm3)))
                if v == 0.0:
                    continue
                v *= float(wigner3j(H(t1), H(t5), H(t6), H(tm1), H(-tm5), H(tm6)))
                if v == 0.0:
                    continue
                v *= float(wigner3j(H(t4), H(t2), H(t6), H(tm4), H(tm2), H(-tm6)))
                if v == 0.0:
                    continue
                v *= float(wigner3j(H(t4), H(t5), H(t3), H(-tm4), H(tm5), H(tm3)))
                total += (-1) ** (phase_t // 2) * v
    return total


def test_6j_frozen_values():
    assert wigner6j(1, 1, 1, 1, 1, 1) == SqrtRational.of(Fraction(1, 6))
    # zero-spin reduction {a b c; 0 c b} = (-1)^(a+b+c)/sqrt(d_b d_c)
    assert wigner6j(1, 2, 3, 0, 3, 2) == SqrtRational(1, Fraction(1, 35), 35)
    assert wigner6j(1, 1, 3, 1, 1, 1).is_zero


def test_6j_matches_contraction_oracle():
    # the oracle itself reproduces the frozen values first
    assert abs(sixj_contraction_oracle((2, 2, 2, 2, 2, 2)) - 1 / 6) < 1e-13
    assert abs(sixj_contraction_oracle((2, 4, 6, 0, 6, 4)) - 1 / math.sqrt(35)) < 1e-13
    rng = random.Random(101)
    checked = 0
    while checked < 15:
        t = tuple(rng.randrange(0, 7) for _ in range(6))
        ours = float(wigner6j(*(H(x) for x in t)))
        oracle = sixj_contraction_oracle(t)
        assert abs(ours - oracle) < 1e-12, (t, ours, oracle)
        if ours != 0.0:
            checked += 1


def sixj_window(t):
    """(triads, T sums, P sums) of the 6j with twice values t, or None when
    a triad fails; the Racah sum runs over max(T) <= z <= min(P)."""
    tri = ((t[0], t[1], t[2]), (t[0], t[4], t[5]), (t[3], t[1], t[5]), (t[3], t[4], t[2]))
    for (x, y, z) in tri:
        if (x + y + z) % 2 or z < abs(x - y) or z > x + y:
            return None
    t_sums = [(x + y + z) // 2 for (x, y, z) in tri]
    p_sums = [(t[0] + t[1] + t[3] + t[4]) // 2, (t[1] + t[2] + t[4] + t[5]) // 2,
              (t[0] + t[2] + t[3] + t[5]) // 2]
    return tri, t_sums, p_sums


def sixj_ledger_free(t):
    """Racah sum with plain math.factorial fractions: an independent route
    around the prime-exponent ledger and the term-ratio recurrence.
    Returns (signed sum, squared prefactor); the 6j is sum * sqrt(prefactor)."""
    window = sixj_window(t)
    if window is None:
        return Fraction(0), Fraction(1)
    tri, t_sums, p_sums = window
    fact = math.factorial

    def delta2(x, y, z):
        return Fraction(
            fact((x + y - z) // 2) * fact((x - y + z) // 2) * fact((-x + y + z) // 2),
            fact((x + y + z) // 2 + 1),
        )

    total = Fraction(0)
    for z in range(max(t_sums), min(p_sums) + 1):
        term = Fraction(fact(z + 1))
        for ts in t_sums:
            term /= fact(z - ts)
        for ps in p_sums:
            term /= fact(ps - z)
        total += (-1) ** z * term
    rad2 = delta2(*tri[0]) * delta2(*tri[1]) * delta2(*tri[2]) * delta2(*tri[3])
    return total, rad2


def test_6j_against_ledger_free_racah():
    rng = random.Random(909)
    cases = []
    while len(cases) < 12:
        t = tuple(rng.randrange(0, 60) for _ in range(6))
        total, rad2 = sixj_ledger_free(t)
        if total != 0:
            cases.append((t, total, rad2))
    # spins 200-1000, windows of at most 60 terms to keep the oracle quick
    while len(cases) < 17:
        t = tuple(rng.randrange(400, 2001) for _ in range(6))
        window = sixj_window(t)
        if window is None or min(window[2]) - max(window[1]) > 60:
            continue
        total, rad2 = sixj_ledger_free(t)
        if total != 0:
            cases.append((t, total, rad2))
    for t, total, rad2 in cases:
        ours = wigner6j(*(H(x) for x in t))
        assert ours.sign == (1 if total > 0 else -1), t
        assert ours.value_squared() == total * total * rad2, t


def test_6j_large_spin_half_integer():
    # engine handles spins of several hundred and mixed parities
    t = (861, 61, 860, 120, 862, 121)
    v = wigner6j(*(H(x) for x in t))
    total, rad2 = sixj_ledger_free(t)
    assert total != 0
    assert v.sign == (1 if total > 0 else -1)
    assert v.value_squared() == total * total * rad2
    assert math.isfinite(float(v)) and float(v) != 0.0
    # symmetry: column permutation leaves the value unchanged
    w = wigner6j(H(61), H(861), H(860), H(862), H(120), H(121))
    assert v == w


def test_6j_all_24_symmetry_layouts_fresh():
    """Every column permutation combined with an even number of row flips
    gives the same value when computed from scratch."""
    from itertools import permutations as _perms

    rng = random.Random(911)
    for _ in range(6):
        t = tuple(rng.randrange(0, 24) for _ in range(6))
        cols = [(t[0], t[3]), (t[1], t[4]), (t[2], t[5])]
        seen = set()
        reference = None
        for perm in _perms(range(3)):
            picked = [cols[i] for i in perm]
            for flips in ((0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)):
                top = tuple(picked[i][flips[i]] for i in range(3))
                bot = tuple(picked[i][1 - flips[i]] for i in range(3))
                layout = top + bot
                if layout in seen:
                    continue
                seen.add(layout)
                value = wigner6j(*(H(x) for x in layout))
                if reference is None:
                    reference = value
                else:
                    assert value == reference, (t, layout)


# ----------------------------------------------------------------------
# binary splitting against Horner's rule
# ----------------------------------------------------------------------

def threej_with_window(rng, terms):
    """(a, b, c, d, e) of a 3j series whose window has ``terms`` terms."""
    d, e = rng.randrange(-60, 60), rng.randrange(-60, 60)
    top = max(0, -d, -e) + terms - 1
    abc = [top, top + rng.randrange(0, 40), top + rng.randrange(0, 40)]
    rng.shuffle(abc)
    return (*abc, d, e)


def sixj_with_window(rng, terms, spread=40):
    """Twice values of a valid 6j whose Racah window has ``terms`` terms."""
    while True:
        t = tuple(rng.randrange(2 * terms - 2, 2 * terms + spread) for _ in range(6))
        window = sixj_window(t)
        if window is not None and min(window[2]) - max(window[1]) + 1 == terms:
            return t


def split_merges(run):
    """run() with every ``exact._split`` call recorded: run's result and
    each merge of the one split tree as (left, right, merged) triples."""
    calls, split = {}, exact._split

    def recording(lo, hi, *lists):
        calls[lo, hi] = out = split(lo, hi, *lists)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "_split", recording)
        result = run()
    merges = [(calls[lo, mid], calls[mid, hi], out) for (lo, hi), out in calls.items()
              for mid in range(lo + 1, hi) if (lo, mid) in calls and (mid, hi) in calls]
    return result, merges


def assert_cross_cancelled(merges):
    """Each merge of (p1, q1, r1) and (p2, q2, r2) is the product triple
    (p1 p2, p1 q2 + q1 r2, r1 r2) divided by g = gcd(p1, r2), no more and
    no less: p1 / g and r2 / g are coprime, the triple as a whole need not
    be.  Some merge has g > 1, so the cancellation is seen to happen."""
    cancelled = False
    for (p1, q1, r1), (p2, q2, r2), merged in merges:
        g = math.gcd(p1, r2)
        assert merged == (p1 * p2 // g, (p1 * q2 + q1 * r2) // g, r1 * r2 // g)
        cancelled |= g > 1
    assert cancelled or not merges


def split_matches_horner(series, horner, args):
    """Binary splitting returns Horner's head and Horner's fraction, and
    merges by cross-cancellation (:func:`assert_cross_cancelled`)."""
    (head, num, den), merges = split_merges(lambda: series(*args))
    want_head, want_num, want_den = horner(*args)
    assert head == want_head, args
    assert Fraction(num, den) == Fraction(want_num, want_den), args
    assert_cross_cancelled(merges)
    return den, want_den, len(merges)


@pytest.mark.parametrize("terms", [31, 32, 33, 64, 65])
def test_split_matches_horner_at_leaf_edges(monkeypatch, terms):
    """With every window sent to binary splitting, leaves of the split meet
    each window on either side of one and two leaf lengths; the split gives
    Horner's own head and the same fraction, not Horner's integers: each
    merge cancels gcd(p1, r2)."""
    assert exact._LEAF == 32
    monkeypatch.setattr(exact, "_HORNER", 0)
    rng = random.Random(terms)
    for _ in range(3):
        abcde = threej_with_window(rng, terms)
        split_matches_horner(exact._threej_series, threej_series_horner, abcde)
        t = sixj_with_window(rng, terms)
        split_matches_horner(exact._racah_series, racah_series_horner, t)


def test_split_matches_horner_on_long_windows():
    """Unpatched, on windows of _HORNER - 1, _HORNER and _HORNER + 1 steps,
    either side of the switch from Horner's rule to binary splitting, for a
    3j, a 6j and a chain column whose t are not 1, and on one 6j near spin
    2000 with a window of 1577 steps, whose denominator is under a tenth of
    Horner's in bits."""
    rng = random.Random(2000)
    for steps in (exact._HORNER - 1, exact._HORNER, exact._HORNER + 1, 899):
        abcde = threej_with_window(rng, steps + 1)
        split_matches_horner(exact._threej_series, threej_series_horner, abcde)
        t = sixj_with_window(rng, steps + 1, spread=400)
        split_matches_horner(exact._racah_series, racah_series_horner, t)
        # the orthogonality chain {s s x; s s 1}^2, twice s = steps, sums x = 0..s
        _, _, ts, ns, ds = exact._chain_series(((steps, steps, X, steps, steps, 2),) * 2,
                                               lambda tx: tx + 1)
        assert len(ns) == steps and set(ts) != {1}
        (num, den), merges = split_merges(lambda: exact._nest(ts, ns, ds, exact._HORNER))
        assert Fraction(num, den) == nest_direct(ts, ns, ds)
        assert_cross_cancelled(merges)
        assert (steps < exact._HORNER) == (not merges)
    t = (3818, 3307, 3937, 3542, 3815, 3695)
    _, t_sums, p_sums = sixj_window(t)
    assert min(p_sums) - max(t_sums) == 1577  # steps
    den, horner_den, merged = split_matches_horner(
        exact._racah_series, racah_series_horner, t)
    assert merged > 0
    assert 10 * den.bit_length() < horner_den.bit_length()


def test_split_6j_matches_sympy():
    """Exact equality with sympy.physics.wigner on a 6j whose window is
    summed by binary splitting."""
    wigner = pytest.importorskip("sympy.physics.wigner")
    import sympy

    t = (1401, 1301, 1200, 1250, 1350, 1321)
    _, t_sums, p_sums = sixj_window(t)
    assert min(p_sums) - max(t_sums) + 1 > exact._HORNER
    ours = wigner6j(*(H(x) for x in t))
    theirs = wigner.wigner_6j(*(sympy.Rational(x, 2) for x in t), prec=None)
    assert not ours.is_zero
    assert theirs == (ours.sign * sympy.Rational(ours.rat.numerator, ours.rat.denominator)
                      * sympy.sqrt(ours.rad))


def test_split_3j_matches_sympy():
    """Exact equality with sympy.physics.wigner on a 3j with half-integer
    spins whose window is summed by binary splitting."""
    wigner = pytest.importorskip("sympy.physics.wigner")
    import sympy

    t1, t2, t3, u1, u2, u3 = t = (1401, 1301, 1200, 3, -41, 38)
    abcde = ((t1 + t2 - t3) // 2, (t1 - u1) // 2, (t2 + u2) // 2,
             (t3 - t2 + u1) // 2, (t3 - t1 - u2) // 2)
    kmin = max(0, -abcde[3], -abcde[4])
    assert min(abcde[:3]) - kmin + 1 > exact._HORNER
    ours = wigner3j(*(H(x) for x in t))
    theirs = wigner.wigner_3j(*(sympy.Rational(x, 2) for x in t))
    assert not ours.is_zero
    assert theirs == (ours.sign * sympy.Rational(ours.rat.numerator, ours.rat.denominator)
                      * sympy.sqrt(ours.rad))
