"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured figures (run with -s to see them).

Thresholds and runtime budgets are fixed here, not tuned: identities and
pivot agreement in exact arithmetic,
reference-sweep reproduction at the stated correlation/error bounds, and
the geometry/specialization suites at their stated tolerances.
"""

from __future__ import annotations

import math
import random
import time

import mpmath
import numpy as np

from wigner_asym.asymptotics import (
    SmallSpinMarking,
    asym_3nj,
    asym_9j_one_small,
    asym_15j_four_small,
    asym_15j_one_small,
    asym_15j_three_small,
    asym_15j_two_small,
    edmonds_6j,
    pr_6j,
)
from wigner_asym.errors import CaseAngleOutOfRange, NotClassicallyAllowed
from wigner_asym.exact import (
    PIVOTS,
    Symbol3nj,
    Symbol9j,
    wigner6j,
    wigner9j,
    wigner15j,
    wigner3nj,
)
from wigner_asym.geometry import (
    Tetrahedron,
    dihedral_internal,
    euler_from_glued_triangles,
    volume,
)
from wigner_asym.halfint import HalfInt
from wigner_asym.identities import (
    orthogonality_sides,
    pentagon_mismatches,
    random_orthogonality_instance,
    random_valid_9j,
)
from wigner_asym.harness import edge_error_slopes, fig4_suite

from conftest import random_realizable_tet, sample_chain_15j, to_mpf
from oracles import (
    embed_vertices,
    random_valid_chain,
    schlafli_residual,
    su2_euler_product,
    su2_extract_euler,
)

H = HalfInt.from_twice


def report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def test_criterion_01_exact_identities():
    """Pentagon identity and 6j orthogonality, 100 random instances each,
    spins <= 10, both exact, < 30 s."""
    t0 = time.monotonic()
    mismatches = pentagon_mismatches(random.Random(101), 100, tmax=20)
    assert mismatches == 0, mismatches
    defects = 0
    done = 0
    rng2 = random.Random(103)
    while done < 100:
        inst = random_orthogonality_instance(rng2, tmax=16)
        if inst is None:
            continue
        lhs, rhs = orthogonality_sides(*inst)
        if lhs != rhs:
            defects += 1
        done += 1
    assert defects == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, elapsed
    report(1, f"pentagon and orthogonality exact on 100 instances each, {elapsed:.1f}s")


def test_criterion_02_pivot_invariance():
    """All four pivot decompositions agree exactly on 100 random 9j
    symbols with spins <= 20, exact zeros included, < 60 s."""
    t0 = time.monotonic()
    rng = random.Random(202)
    zeros = 0
    for _ in range(100):
        sym = random_valid_9j(rng, tmax=40)
        vals = [wigner9j(sym, pivot=p).value for p in PIVOTS]
        for v in vals[1:]:
            assert v == vals[0], sym
        zeros += vals[0].is_zero
    # random grids are seldom zero: add ten that vanish by symmetry (two
    # equal columns and odd R), which every pivot must return as exact 0
    structural = 0
    while structural < 10:
        ta, td, tg = (rng.randrange(0, 41) for _ in range(3))
        tc, tf, ti = (2 * rng.randrange(0, t + 1) for t in (ta, td, tg))
        sym = Symbol9j.from_twice(ta, ta, tc, td, td, tf, tg, tg, ti)
        if not sym.is_valid() or (sym.r_total().twice // 2) % 2 == 0:
            continue
        for p in PIVOTS:
            assert wigner9j(sym, pivot=p).value.is_zero, (sym, p)
        structural += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, elapsed
    report(2, f"all four pivots exactly equal on 100 symbols ({zeros} exactly zero) "
              f"and exactly 0 on 10 symmetry zeros, {elapsed:.1f}s")


def test_criterion_03_3nj_consistency():
    """wigner3nj(n=5) == wigner15j exactly on 50 random symbols
    (spins <= 10), with the circular-shift and row-exchange symmetries."""
    t0 = time.monotonic()
    rng = random.Random(303)
    for i in range(50):
        sym = random_valid_chain(rng, 5, tmax=20)
        a = wigner3nj(sym)
        b = wigner15j(sym.j, sym.k, sym.l)
        assert a == b, sym
        if i % 10 == 0:
            shift = rng.randrange(1, 10)
            assert wigner3nj(sym.rotated(shift)) == a, (sym, shift)
            assert wigner3nj(sym.rows_exchanged()) == a, sym
    report(3, "exact agreement over 50 symbols + symmetries, "
              f"{time.monotonic() - t0:.1f}s")


def test_criterion_04_reference_sweep_a():
    """Sweep a: interior pointwise |exact - asym| <= 0.1 max|exact| and
    correlation >= 0.99, < 5 min."""
    t0 = time.monotonic()
    reports, results = fig4_suite()
    panel_a = next(r for r in reports if r.name == "a")
    s = panel_a.summary
    assert s["correlation_interior"] >= 0.99, s
    assert s["max_abs_err_interior"] <= 0.1 * s["max_abs_exact"], s
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, elapsed
    report(4, f"interior corr {s['correlation_interior']:.5f}, max err "
              f"{s['max_abs_err_interior']:.2e} <= {0.1 * s['max_abs_exact']:.2e}, "
              f"{elapsed:.1f}s")


def test_criterion_05_reference_sweeps_c_d():
    """Sweeps c and d: interior correlation >= 0.95 and the error grows
    toward the caustic at the sweep ends."""
    t0 = time.monotonic()
    reports, results = fig4_suite()
    for name in ("c", "d"):
        panel = next(r for r in reports if r.name == name)
        assert panel.summary["correlation_interior"] >= 0.95, panel.summary
        slopes = edge_error_slopes(results[name])
        assert slopes is not None
        assert slopes[0] > 0.0 and slopes[1] > 0.0, (name, slopes)
    report(5, "panels c, d: interior corr "
              + ", ".join(f"{next(r for r in reports if r.name == n).summary['correlation_interior']:.4f}"
                          for n in ("c", "d"))
              + f"; error slopes positive at both ends, {time.monotonic() - t0:.1f}s")


def test_criterion_06_error_scaling_law():
    """Fixed-shape 9j family with s = 1, large spins scaled by 1, 2, 4:
    interior RMS relative error non-increasing (one inversion allowed),
    < 5 min."""
    t0 = time.monotonic()
    base = (40, 42, 44, 2, 38, 38, 40, 42, 46)
    rms = []
    with mpmath.workdps(45):
        for lam in (1, 2, 4):
            tj = [t * lam for t in base]
            tj[3] = 2
            errs, mags = [], []
            for tj24 in range(26 * lam, 58 * lam + 1, 2 * lam):
                grid = list(tj)
                grid[7] = tj24
                sym = Symbol9j.from_twice(*grid)
                if not sym.is_valid():
                    continue
                try:
                    approx, _ = asym_9j_one_small(sym)
                except NotClassicallyAllowed:
                    continue
                exact = float(wigner9j(sym).value)
                errs.append(abs(exact - approx))
                mags.append(exact)
            # interior 80% of the compared points
            n_trim = max(1, len(errs) // 10)
            errs = errs[n_trim:-n_trim]
            mags = mags[n_trim:-n_trim]
            rms.append(math.sqrt(np.mean(np.square(errs)))
                       / math.sqrt(np.mean(np.square(mags))))
    inversions = sum(1 for a, b in zip(rms, rms[1:]) if b > a)
    assert inversions <= 1, rms
    assert rms[-1] < rms[0], rms
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, elapsed
    report(6, "interior RMS relative error at scale 1, 2, 4: "
              + ", ".join(f"{r:.4f}" for r in rms) + f"; {elapsed:.1f}s")


def test_criterion_07_one_small_spin_6j():
    """50 random one-small-spin 6j with a, b, c in [80, 120], f <= 2,
    non-flat triangles: relative error vs exact <= 2%.

    Instances where the rotation-matrix factor sits within 0.1 of one of
    its zero crossings are resampled: there both values vanish together
    and the relative error measures nothing about the formula."""
    t0 = time.monotonic()
    rng = random.Random(707)
    worst = 0.0
    done = 0
    with mpmath.workdps(40):
        while done < 50:
            a = rng.randint(80, 120)
            b = rng.randint(80, 120)
            c = rng.randint(abs(a - b), a + b)
            if not 80 <= c <= 120:
                continue
            la, lb, lc = a + 0.5, b + 0.5, c + 0.5
            cos_phi = (la * la + lb * lb - lc * lc) / (2 * la * lb)
            if abs(cos_phi) > 0.9:
                continue
            tf = rng.choice([1, 2, 3, 4])
            tm = rng.randrange(-tf, tf + 1, 2)
            tn = rng.randrange(-tf, tf + 1, 2)
            exact = float(to_mpf(wigner6j(HalfInt(a), HalfInt(b), HalfInt(c),
                                          HalfInt(b) + H(tm), HalfInt(a) + H(tn),
                                          H(tf))))
            if abs(exact) * math.sqrt((2 * a + 1.0) * (2 * b + 1.0)) < 0.1:
                continue
            approx = edmonds_6j(a, b, c, H(tm), H(tn), H(tf))
            worst = max(worst, abs(approx - exact) / abs(exact))
            done += 1
    assert worst <= 0.02, worst
    report(7, f"worst relative error {worst:.3%} over 50 instances, "
              f"{time.monotonic() - t0:.1f}s")


def test_criterion_08_oscillatory_6j():
    """20 near-regular all-large 6j at spins ~50: pointwise
    |exact - asym| <= 0.15 / sqrt(12 pi V)."""
    t0 = time.monotonic()
    rng = random.Random(808)
    done = 0
    worst_ratio = 0.0
    with mpmath.workdps(40):
        while done < 20:
            spins = [HalfInt(rng.randint(45, 55)) for _ in range(6)]
            try:
                tet = Tetrahedron.from_spins(spins)
                if tet.status() != "allowed":
                    continue
                approx, _ = pr_6j(spins)
            except Exception:
                continue
            envelope = 1.0 / math.sqrt(12.0 * math.pi * volume(tet))
            exact = float(to_mpf(wigner6j(*spins)))
            worst_ratio = max(worst_ratio, abs(exact - approx) / envelope)
            done += 1
    assert worst_ratio <= 0.15, worst_ratio
    report(8, f"worst |exact-asym| = {worst_ratio:.3f} envelopes over 20 "
              f"instances, {time.monotonic() - t0:.1f}s")


def test_criterion_09_geometry_suite():
    """100 random tetrahedra: Schlafli residual < 1e-6 and embedding
    agreement < 1e-10; 1000 Euler recombinations vs the SU(2) oracle
    < 1e-10."""
    t0 = time.monotonic()
    np_rng = np.random.RandomState(909)
    worst_schlafli = 0.0
    worst_embed = 0.0
    for _ in range(100):
        tet = random_realizable_tet(np_rng)
        worst_schlafli = max(worst_schlafli, schlafli_residual(tet))
        verts = embed_vertices(tet)
        p, q, r, s = verts
        v_embed = abs(np.linalg.det(np.vstack([q - p, r - p, s - p]))) / 6.0
        worst_embed = max(worst_embed, abs(volume(tet) - v_embed))
        n1 = np.cross(q - p, r - p)
        n2 = np.cross(q - p, s - p)
        cos_d = np.dot(n1, n2) / (np.linalg.norm(n1) * np.linalg.norm(n2))
        oracle = math.acos(max(-1.0, min(1.0, cos_d)))
        worst_embed = max(worst_embed, abs(dihedral_internal(tet, "a") - oracle))
    assert worst_schlafli < 1e-6, worst_schlafli
    assert worst_embed < 1e-10, worst_embed

    rng = random.Random(910)
    worst_euler = 0.0
    done = 0
    while done < 1000:
        phi1 = rng.uniform(0.05, math.pi - 0.05)
        phin = rng.uniform(0.05, math.pi - 0.05)
        theta = rng.uniform(0.01, math.pi - 0.01)
        theta_a, mid, theta_b = euler_from_glued_triangles(phi1, theta, phin)
        if math.sin(mid) < 1e-6:
            continue
        tr = su2_extract_euler(su2_euler_product(phi1, math.pi - theta, phin))
        worst_euler = max(worst_euler, abs(tr.alpha - theta_a),
                          abs(tr.beta - mid), abs(tr.gamma - theta_b))
        done += 1
    assert worst_euler < 1e-10, worst_euler
    report(9, f"schlafli {worst_schlafli:.2e}, embedding {worst_embed:.2e}, "
              f"euler-vs-SU(2) {worst_euler:.2e}, {time.monotonic() - t0:.1f}s")


def test_criterion_10_specialization_suite():
    """The general mixed-spin driver reproduces the one-small 9j formula
    (n = 3) and every closed 15j form on their exact-overlap domains to
    < 1e-12 (scaled by the term envelope where the configuration sum
    cancels); the closed one-small 15j tracks the exact engine with
    interior correlation >= 0.95 at spins ~60.  Budget < 10 min."""
    t0 = time.monotonic()
    rng = random.Random(1010)

    # n = 3 specialization on the exact-overlap family (mu = nu = 0)
    worst_n3 = 0.0
    with mpmath.workdps(45):
        for ts, tets in ((2, (120, 124, 122, 118, 126, 120)),
                         (4, (160, 160, 164, 158, 162, 166)),
                         (2, (200, 204, 202, 198, 206, 200))):
            tj1, tj2, tj12, tj34, tj5, tj24 = tets
            sym9 = Symbol9j.from_twice(tj1, tj2, tj12, ts, tj34, tj34, tj1, tj24, tj5)
            assert sym9.is_valid()
            chain = Symbol3nj((sym9.s, sym9.j1, sym9.j2),
                              (sym9.j24, sym9.j5, sym9.j34),
                              (sym9.j13, sym9.j12, sym9.j4))
            v9, _ = asym_9j_one_small(sym9)
            v3, _ = asym_3nj(chain, SmallSpinMarking(("j", 1)))
            sign = -1 if (sym9.r_total().twice // 2) % 2 else 1
            worst_n3 = max(worst_n3, abs(v3 - sign * v9) / max(abs(v9), 1e-300))
    assert worst_n3 < 1e-12, worst_n3

    # 15j wrappers on their overlap domains
    wrapper_worst = 0.0
    sym = Symbol3nj((H(2),) + (H(80),) * 4, (H(90),) + (H(84),) * 4,
                    (H(80), H(2), H(4), H(2), H(84)))
    mark = SmallSpinMarking(("j", 1), frozenset({2, 3, 4}))
    w, _ = asym_15j_four_small(sym, mark)
    g, _ = asym_3nj(sym, mark)
    wrapper_worst = max(wrapper_worst, abs(w - g) / max(abs(g), 1e-300))

    sym = Symbol3nj((H(2), H(120), H(120), H(120), H(118)),
                    (H(124), H(116), H(116), H(116), H(122)),
                    (H(120), H(2), H(4), H(120), H(122)))
    mark = SmallSpinMarking(("j", 1), frozenset({2, 3}))
    w, _ = asym_15j_three_small(sym, mark)
    g, _ = asym_3nj(sym, mark)
    wrapper_worst = max(wrapper_worst, abs(w - g) / max(abs(g), 1e-300))

    sym = Symbol3nj((H(2), H(120), H(120), H(118), H(122)),
                    (H(124), H(116), H(116), H(120), H(118)),
                    (H(120), H(4), H(118), H(122), H(118)))
    mark = SmallSpinMarking(("j", 1), frozenset({2}))
    w, _ = asym_15j_two_small(sym, mark)
    g, _ = asym_3nj(sym, mark)
    wrapper_worst = max(wrapper_worst, abs(w - g) / max(abs(g), 1e-300))

    done = 0
    while done < 3:
        chain = sample_chain_15j(rng, base=55 + done, t_small=2, nsmall_l=0)
        j, k, l = list(chain.j), list(chain.k), list(chain.l)
        l[0], l[4] = j[1], k[4]
        try:
            chain = Symbol3nj(tuple(j), tuple(k), tuple(l))
        except ValueError:
            continue
        if not chain.is_valid():
            continue
        mark = SmallSpinMarking(("j", 1))
        try:
            w, dw = asym_15j_one_small(chain, mark)
            g, _ = asym_3nj(chain, mark)
        except (NotClassicallyAllowed, CaseAngleOutOfRange):
            continue
        envelope = 4.0 / (48.0 * math.pi * math.sqrt(
            12.0 * math.pi * chain.j[1].dim * chain.k[4].dim
            * float(np.prod(list(dw.volumes.values())))))
        wrapper_worst = max(wrapper_worst, abs(w - g) / max(abs(g), envelope))
        done += 1
    assert wrapper_worst < 1e-12, wrapper_worst

    # one-small 15j against the exact engine
    pts_exact, pts_asym = [], []
    with mpmath.workdps(45):
        attempts = 0
        while len(pts_exact) < 14 and attempts < 80:
            attempts += 1
            tj1 = 2
            tj = [tj1] + [2 * (58 + rng.randint(-2, 2)) for _ in range(4)]
            tk = [2 * (58 + rng.randint(-2, 2)) for _ in range(5)]
            tmu = rng.randrange(-tj1, tj1 + 1, 2)
            tnu = rng.randrange(-tj1, tj1 + 1, 2)
            tl = [tj[1] - tmu, 2 * (58 + rng.randint(-2, 2)),
                  2 * (58 + rng.randint(-2, 2)), 2 * (58 + rng.randint(-2, 2)),
                  tk[4] - tnu]
            try:
                chain = Symbol3nj(tuple(map(H, tj)), tuple(map(H, tk)), tuple(map(H, tl)))
            except ValueError:
                continue
            if not chain.is_valid():
                continue
            try:
                w, _ = asym_15j_one_small(chain, SmallSpinMarking(("j", 1)))
            except (NotClassicallyAllowed, CaseAngleOutOfRange):
                continue
            pts_exact.append(float(wigner15j(chain.j, chain.k, chain.l)))
            pts_asym.append(w)
    assert len(pts_exact) >= 10
    corr = float(np.corrcoef(pts_exact, pts_asym)[0, 1])
    assert corr >= 0.95, corr

    elapsed = time.monotonic() - t0
    assert elapsed < 600.0, elapsed
    report(10, f"n=3 worst {worst_n3:.2e}, wrappers worst {wrapper_worst:.2e}, "
               f"one-small-vs-exact corr {corr:.4f} on {len(pts_exact)} symbols, "
               f"{elapsed:.1f}s")
