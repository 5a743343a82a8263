"""Sweep harness: exact-vs-asymptotic comparisons, CSV + plot emission.

A sweep varies one spin slot of a symbol over an inclusive twice-integer
range, evaluates the exact engine and/or an asymptotic formula at every
Clebsch-Gordan-allowed point, and emits one CSV row per point:

    sweep_twice, exact, asym, abs_err, vol_1..vol_P, flag

Exact values are closed :class:`SqrtRational` numbers; every value is
formatted at 17 significant digits and the summary metrics are recomputed
from the formatted text, so a sweep is reproducible bit-for-bit and the
CSV is self-contained.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field

import mpmath

from .asymptotics import (
    CLOSED_15J_FORMS,
    SmallSpinMarking,
    asym_3nj,
    asym_9j_one_small,
    edmonds_6j,
    oscillatory_tetrahedra,
    pr_6j,
)
from .errors import ConfigError, WignerAsymError
from .exact import Symbol3nj, Symbol9j, wigner6j, wigner9j, wigner3nj
from .geometry import DEFAULT_CAUSTIC_EPS, FACES, Tetrahedron
from .halfint import HalfInt, triad_allowed
from .sqrtrat import SqrtRational

SLOT_NAMES = {
    "6j": ("a", "b", "c", "d", "e", "f"),
    "9j": ("j1", "j2", "j12", "s", "j4", "j34", "j13", "j24", "j5"),
}

ASYM_FORMULAS = {
    "pr6j": "6j",
    "edmonds": "6j",
    "asym9j": "9j",
    "asym3nj": "3nj",
    "15j-1": "15j",
    "15j-2": "15j",
    "15j-3": "15j",
    "15j-4": "15j",
}

@dataclass
class SweepConfig:
    kind: str                      # 6j | 9j | 15j | 3nj
    spins_twice: dict              # slot -> twice-int (sweep slot excluded)
    sweep_slot: str
    start_twice: int
    stop_twice: int                # inclusive
    step_twice: int = 2
    formulas: tuple = ("exact",)
    n: int = 5                     # for 3nj
    pivot: str = "j24"
    marking: SmallSpinMarking | None = None
    caustic_eps: float = DEFAULT_CAUSTIC_EPS
    trim_fraction: float = 0.1
    edmonds_lengths: str = "half"
    out: str | None = None

    @classmethod
    def from_json(cls, text: str) -> "SweepConfig":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError({"<document>": f"invalid JSON: {exc}"}) from exc
        problems = {}
        kind = doc.get("kind")
        if kind not in ("6j", "9j", "15j", "3nj"):
            problems["kind"] = f"expected 6j|9j|15j|3nj, got {kind!r}"
        n = doc.get("n", 5)
        if kind == "15j":
            n = 5
        slots = _slot_names(kind, n) if kind else ()
        spins = doc.get("spins_twice")
        if not isinstance(spins, dict):
            problems["spins_twice"] = "must be an object of slot -> twice-integer"
            spins = {}
        sweep = doc.get("sweep")
        if not isinstance(sweep, dict):
            problems["sweep"] = "must be an object {slot, start_twice, stop_twice, step_twice}"
            sweep = {}
        slot = sweep.get("slot")
        if slots and slot not in slots:
            problems["sweep.slot"] = f"{slot!r} is not a slot of a {kind} symbol"
        for key in ("start_twice", "stop_twice"):
            if not isinstance(sweep.get(key), int):
                problems[f"sweep.{key}"] = "must be a twice-integer"
        step = sweep.get("step_twice", 2)
        if not isinstance(step, int) or step <= 0:
            problems["sweep.step_twice"] = "must be a positive integer (twice-units)"
        for name, value in spins.items():
            if slots and name not in slots:
                problems[f"spins_twice.{name}"] = f"not a slot of a {kind} symbol"
            elif not isinstance(value, int):
                problems[f"spins_twice.{name}"] = "must be a twice-integer"
        if slots:
            missing = [s for s in slots if s != slot and s not in spins]
            if missing:
                problems["spins_twice"] = f"missing slots: {', '.join(missing)}"
        formulas = tuple(doc.get("formulas", ("exact",)))
        for f in formulas:
            if f != "exact" and f not in ASYM_FORMULAS:
                problems["formulas"] = f"unknown formula {f!r}"
            elif f != "exact" and kind and ASYM_FORMULAS[f] != kind:
                problems["formulas"] = f"{f} does not apply to a {kind} symbol"
        n_asym = sum(1 for f in formulas if f != "exact")
        if n_asym > 1:
            problems["formulas"] = "at most one asymptotic formula per sweep"
        marking = None
        if "marking" in doc:
            try:
                m = doc["marking"]
                marking = SmallSpinMarking(
                    (m["small_jk"][0], int(m["small_jk"][1])),
                    frozenset(int(i) for i in m.get("small_l", ())),
                )
            except (KeyError, TypeError, ValueError) as exc:
                problems["marking"] = f"invalid marking: {exc}"
        if kind in ("15j", "3nj") and any(f != "exact" for f in formulas) and marking is None:
            if not any(f in CLOSED_15J_FORMS for f in formulas):
                problems["marking"] = "3nj asymptotics need a small-spin marking"
        start, stop = sweep.get("start_twice"), sweep.get("stop_twice")
        if isinstance(start, int) and isinstance(stop, int) and stop < start:
            problems["sweep.stop_twice"] = "must be >= start_twice"
        if problems:
            raise ConfigError(problems)
        return cls(
            kind=kind,
            spins_twice=dict(spins),
            sweep_slot=slot,
            start_twice=sweep["start_twice"],
            stop_twice=sweep["stop_twice"],
            step_twice=step,
            formulas=formulas,
            n=n,
            pivot=doc.get("pivot", "j24"),
            marking=marking,
            caustic_eps=float(doc.get("caustic_eps", DEFAULT_CAUSTIC_EPS)),
            trim_fraction=float(doc.get("trim_fraction", 0.1)),
            edmonds_lengths=doc.get("edmonds_lengths", "half"),
            out=doc.get("out"),
        )


def _slot_names(kind: str, n: int) -> tuple:
    if kind in SLOT_NAMES:
        return SLOT_NAMES[kind]
    if kind == "15j":
        n = 5
    return tuple(
        f"{row}{i}" for row in ("j", "k", "l") for i in range(1, n + 1)
    )


@dataclass
class SweepRow:
    sweep_twice: int
    exact: str = ""
    asym: str = ""
    abs_err: str = ""
    volumes: tuple = ()
    flag: str = "allowed"
    note: str = ""
    sigma_cases: tuple = ()


@dataclass
class SweepResult:
    config: SweepConfig
    rows: list
    n_volume_columns: int
    summary: dict = field(default_factory=dict)

    def csv_text(self) -> str:
        buf = io.StringIO()
        vol_headers = [f"vol_{i + 1}" for i in range(self.n_volume_columns)]
        buf.write(",".join(["sweep_twice", "exact", "asym", "abs_err"] + vol_headers + ["flag"]) + "\n")
        for row in self.rows:
            vols = [_fmt(v) for v in row.volumes]
            vols += [""] * (self.n_volume_columns - len(vols))
            buf.write(
                ",".join([str(row.sweep_twice), row.exact, row.asym, row.abs_err] + vols + [row.flag])
                + "\n"
            )
        return buf.getvalue()


def _fmt(x) -> str:
    return f"{float(x):.17g}"


#: Decimal working precision for writing exact values as text: far above
#: the 17 printed digits, and fixed, so the emitted bytes never depend on
#: the caller's mpmath context.
_FORMAT_DPS = 65


def _fmt_exact(value: SqrtRational) -> str:
    with mpmath.workdps(_FORMAT_DPS):
        return mpmath.nstr(value.to_mpf(), 17, strip_zeros=False)


@dataclass
class DerivedNineJSweep(SweepConfig):
    """A 9j sweep where several grid slots move together with the swept
    parameter (slot -> twice-value function of the swept twice-value)."""

    base: dict = field(default_factory=dict)
    derived: dict = field(default_factory=dict)

    def __init__(self, base, derived, sweep_slot, start_twice, stop_twice,
                 step_twice=2):
        super().__init__(
            kind="9j",
            spins_twice=dict(base),
            sweep_slot=sweep_slot,
            start_twice=start_twice,
            stop_twice=stop_twice,
            step_twice=step_twice,
            formulas=("exact", "asym9j"),
        )
        self.base = dict(base)
        self.derived = dict(derived)

    def grid_at(self, t_sweep: int) -> dict:
        spins = dict(self.base)
        for slot, fn in self.derived.items():
            spins[slot] = fn(t_sweep)
        return spins


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Evaluate one sweep; row errors are recorded in-row, never raised."""
    points = list(range(cfg.start_twice, cfg.stop_twice + 1, cfg.step_twice))
    want_exact = "exact" in cfg.formulas
    asym_formula = next((f for f in cfg.formulas if f != "exact"), None)

    def evaluate(t_sweep: int):
        if isinstance(cfg, DerivedNineJSweep):
            spins = cfg.grid_at(t_sweep)
        else:
            spins = dict(cfg.spins_twice)
            spins[cfg.sweep_slot] = t_sweep
        return _evaluate_point(cfg, spins, t_sweep, want_exact, asym_formula)

    rows = [r for r in map(evaluate, points) if r is not None]

    n_vol = max((len(r.volumes) for r in rows), default=0)
    result = SweepResult(cfg, rows, n_vol)
    result.summary = summarize(result)
    return result


def _evaluate_point(cfg, spins, t_sweep, want_exact, asym_formula):
    builder = _SYMBOL_BUILDERS[cfg.kind]
    sym = builder(cfg, spins)
    if sym is None:
        return None   # slot assignment is not a valid symbol (CG-excluded)
    row = SweepRow(sweep_twice=t_sweep)
    row.volumes, row.flag = _geometry_columns(cfg, sym, asym_formula)
    if want_exact:
        try:
            value = _exact_value(cfg, sym)
            row.exact = _fmt_exact(value)
        except WignerAsymError as exc:
            row.note = f"exact: {exc}"
    if asym_formula is not None:
        try:
            value, cases = _asym_value(cfg, sym, asym_formula)
            row.asym = _fmt(value)
            row.sigma_cases = cases
        except WignerAsymError as exc:
            row.note = (row.note + "; " if row.note else "") + f"asym: {exc}"
    if row.exact and row.asym:
        err = abs(float(row.exact) - float(row.asym))
        row.abs_err = _fmt(err)
    return row


def _build_6j(cfg, spins):
    vals = tuple(HalfInt.from_twice(spins[s]) for s in SLOT_NAMES["6j"])
    if not all(triad_allowed(*(vals[i] for i in face)) for face in FACES):
        return None
    return vals


def _build_9j(cfg, spins):
    sym = Symbol9j.from_twice(*(spins[s] for s in SLOT_NAMES["9j"]))
    return sym if sym.is_valid() else None


def _build_chain(cfg, spins):
    n = 5 if cfg.kind == "15j" else cfg.n
    names = _slot_names(cfg.kind, n)
    j = tuple(HalfInt.from_twice(spins[s]) for s in names[:n])
    k = tuple(HalfInt.from_twice(spins[s]) for s in names[n:2 * n])
    l = tuple(HalfInt.from_twice(spins[s]) for s in names[2 * n:])
    try:
        sym = Symbol3nj(j, k, l)
    except ValueError:
        return None
    return sym if sym.is_valid() else None


_SYMBOL_BUILDERS = {"6j": _build_6j, "9j": _build_9j, "15j": _build_chain, "3nj": _build_chain}


def _exact_value(cfg, sym) -> SqrtRational:
    if cfg.kind == "6j":
        return wigner6j(*sym)
    if cfg.kind == "9j":
        return wigner9j(sym, pivot=cfg.pivot).value
    return wigner3nj(sym)   # 15j: a 3nj chain with n = 5


def _asym_value(cfg, sym, formula):
    if formula == "pr6j":
        value, diag = pr_6j(sym, cfg.caustic_eps)
        return value, ()
    if formula == "edmonds":
        a, b, c, d, e, f = sym
        m = d - b
        n = e - a
        return edmonds_6j(a, b, c, m, n, f, cfg.edmonds_lengths), ()
    if formula == "asym9j":
        value, diag = asym_9j_one_small(sym, cfg.caustic_eps)
        return value, ()
    if formula == "asym3nj":
        value, diag = asym_3nj(sym, cfg.marking, cfg.caustic_eps)
        return value, tuple(sc["case"] for sc in diag.sign_configs)
    if formula in CLOSED_15J_FORMS:
        func, expected_l = CLOSED_15J_FORMS[formula]
        marking = cfg.marking or SmallSpinMarking(("j", 1), expected_l)
        value, diag = func(sym, marking, cfg.caustic_eps)
        return value, tuple(sc["case"] for sc in diag.sign_configs)
    raise ConfigError({"formulas": f"unknown formula {formula!r}"})


def _geometry_columns(cfg, sym, asym_formula):
    """Volumes of the oscillatory tetrahedra at this point, and the
    allowed/near-caustic/forbidden flag from the Cayley-Menger sign."""
    vols = []
    flag = "allowed"
    rank = {"allowed": 0, "near_caustic": 1, "forbidden": 2}
    try:
        if cfg.kind == "6j":
            if asym_formula == "edmonds":
                return (), "allowed"
            tets = [Tetrahedron.from_spins(sym)]
        elif cfg.kind == "9j":
            tets = [Tetrahedron.from_spins((sym.j1, sym.j2, sym.j12, sym.j34, sym.j5, sym.j24))]
        else:
            marking = cfg.marking
            if marking is None and asym_formula in CLOSED_15J_FORMS:
                marking = SmallSpinMarking(("j", 1), CLOSED_15J_FORMS[asym_formula][1])
            if marking is None:
                return (), "allowed"
            tets = list(oscillatory_tetrahedra(sym, marking).values())
            if any(tet is None for tet in tets):
                return (), "forbidden"
        for tet in tets:
            status = tet.status(cfg.caustic_eps)
            if rank[status] > rank[flag]:
                flag = status
            cm = tet.cayley_menger()
            vols.append(math.sqrt(max(cm, 0.0) / 288.0))
    except WignerAsymError:
        return tuple(vols), "forbidden"
    return tuple(vols), flag


# ----------------------------------------------------------------------
# Summary metrics (recomputed from the formatted CSV fields)
# ----------------------------------------------------------------------

def summarize(result: SweepResult) -> dict:
    """Interior max/RMS error, correlation, and caustic statistics.

    All numbers are parsed back from the CSV-formatted strings so that
    recomputing them from the emitted file gives identical values.
    """
    cfg = result.config
    rows = result.rows
    have = [r for r in rows if r.exact and r.asym]
    swept = [r.sweep_twice for r in rows]
    out = {
        "n_rows": len(rows),
        "n_compared": len(have),
        "near_caustic_fraction": (
            sum(1 for r in rows if r.flag == "near_caustic") / len(rows) if rows else 0.0
        ),
    }
    if rows:
        lo, hi = min(swept), max(swept)
        trim = cfg.trim_fraction * (hi - lo)
        ilo, ihi = lo + trim, hi - trim
        interior = [r for r in have if ilo <= r.sweep_twice <= ihi]
    else:
        interior = []
    out["n_interior"] = len(interior)
    if have:
        out["max_abs_exact"] = max(abs(float(r.exact)) for r in have)
    if interior:
        errs = [float(r.abs_err) for r in interior]
        out["max_abs_err_interior"] = max(errs)
        out["rms_abs_err_interior"] = math.sqrt(sum(e * e for e in errs) / len(errs))
        out["correlation_interior"] = _pearson(
            [float(r.exact) for r in interior], [float(r.asym) for r in interior]
        )
        rms_exact = math.sqrt(
            sum(float(r.exact) ** 2 for r in interior) / len(interior)
        )
        out["rms_rel_err_interior"] = (
            out["rms_abs_err_interior"] / rms_exact if rms_exact > 0 else float("nan")
        )
    return out


def _pearson(xs, ys) -> float:
    n = len(xs)
    if n < 2:
        return float("nan")
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    if sxx <= 0 or syy <= 0:
        return float("nan")
    return sxy / math.sqrt(sxx * syy)


def edge_error_slopes(result: SweepResult, n_points: int = 5):
    """Least-squares slope of |exact - asym| toward each end of the sweep,
    over the outermost ``n_points`` compared points.  Positive slopes mean
    the error grows toward the caustic."""
    have = [r for r in result.rows if r.exact and r.asym]
    if len(have) < 2 * n_points:
        return None
    have.sort(key=lambda r: r.sweep_twice)

    def slope(rows, toward_low):
        # abscissa: distance toward the boundary
        if toward_low:
            xs = [rows[-1].sweep_twice - r.sweep_twice for r in rows]
        else:
            xs = [r.sweep_twice - rows[0].sweep_twice for r in rows]
        ys = [float(r.abs_err) for r in rows]
        n = len(xs)
        mx, my = sum(xs) / n, sum(ys) / n
        den = sum((x - mx) ** 2 for x in xs)
        if den == 0:
            return 0.0
        return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den

    return slope(have[:n_points], True), slope(have[-n_points:], False)


# ----------------------------------------------------------------------
# Output files
# ----------------------------------------------------------------------

def write_outputs(result: SweepResult, csv_path: str) -> None:
    """Write the CSV and a companion gnuplot script (points = exact,
    line = asymptotic)."""
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(result.csv_text())
    plot_path = csv_path.rsplit(".", 1)[0] + ".gnuplot"
    name = csv_path.rsplit("/", 1)[-1]
    script = "\n".join(
        [
            "set datafile separator ','",
            f"set title '{result.config.kind} sweep over {result.config.sweep_slot}'",
            f"set xlabel '{result.config.sweep_slot}'",
            "set key left top",
            f"plot '{name}' using ($1/2):2 every ::1 with points pt 7 ps 0.5 title 'exact', \\",
            f"     '{name}' using ($1/2):3 every ::1 with lines lw 1 title 'asymptotic'",
            "pause -1",
        ]
    )
    with open(plot_path, "w", encoding="utf-8") as fh:
        fh.write(script + "\n")


# ----------------------------------------------------------------------
# The four reference sweeps (one small spin, eight large)
# ----------------------------------------------------------------------

def _nine_j_config(spins: dict, slot: str, start: int, stop: int, out: str) -> SweepConfig:
    spins = dict(spins)
    spins.pop(slot, None)
    return SweepConfig(
        kind="9j",
        spins_twice=spins,
        sweep_slot=slot,
        start_twice=start,
        stop_twice=stop,
        step_twice=2,
        formulas=("exact", "asym9j"),
        out=out,
    )


def reference_sweep_configs() -> dict:
    """The four benchmark 9j sweeps measuring exact-vs-asymptotic agreement.

    a: {430 30 430; 1 60 61; 431 j24 430}, j24 over its allowed window;
    b: the pointwise |exact - asym| of sweep a;
    c: {j1+1/2, 201/2, j1+3; 1 60 61; j1+3/2, 225/2, 99/2}, j1 = 63..160;
    d: {51/2 53/2 28; 1/2 47/2 24; 25 27 j5}, j5 over its allowed window.
    Sweep c keeps j24 = 225/2, a mid-window value valid across the whole
    j1 range (the error is expected to grow as j1 shrinks and the
    reference tetrahedron approaches the caustic).
    """
    nine = SLOT_NAMES["9j"]
    a_spins = dict(zip(nine, (860, 60, 860, 2, 120, 122, 862, None, 860)))
    del a_spins["j24"]
    d_spins = dict(zip(nine, (51, 53, 56, 1, 47, 48, 50, 54, None)))
    del d_spins["j5"]
    configs = {
        "a": _nine_j_config(a_spins, "j24", 60, 180, "fig_a.csv"),
        "d": _nine_j_config(d_spins, "j5", 8, 104, "fig_d.csv"),
    }
    return configs


@dataclass
class PanelReport:
    name: str
    summary: dict
    checks: dict
    passed: bool


def fig4_suite(outdir: str | None = None):
    """Run the four reference sweeps and evaluate their agreement checks.

    Returns (reports, results).  Panel b is the error view of panel a and
    shares its sweep.  Thresholds: panel a needs interior correlation
    >= 0.99 and pointwise interior |err| <= 0.1 max|exact|; panels c and d
    need interior correlation >= 0.95 and the error must trend upward over
    the 5 outermost compared points at each end.
    """
    reports = []
    results = {}

    cfg_a = reference_sweep_configs()["a"]
    res_a = run_sweep(cfg_a)
    results["a"] = res_a
    s = res_a.summary
    checks_a = {
        "interior_correlation>=0.99": s.get("correlation_interior", 0.0) >= 0.99,
        "interior_err<=0.1*max_exact": (
            s.get("max_abs_err_interior", math.inf) <= 0.1 * s.get("max_abs_exact", 0.0)
        ),
    }
    reports.append(PanelReport("a", s, checks_a, all(checks_a.values())))

    # panel b: the |exact - asym| column of sweep a, emitted separately
    reports.append(
        PanelReport(
            "b",
            {"n_rows": s.get("n_rows"), "source": "abs_err column of panel a"},
            {"err_column_present": all(bool(r.abs_err) for r in res_a.rows if r.exact and r.asym)},
            all(bool(r.abs_err) for r in res_a.rows if r.exact and r.asym),
        )
    )

    res_c = run_sweep(_panel_c_config())
    results["c"] = res_c
    sc = res_c.summary
    slopes_c = edge_error_slopes(res_c) or (0.0, 0.0)
    checks_c = {
        "interior_correlation>=0.95": sc.get("correlation_interior", 0.0) >= 0.95,
        "error_grows_toward_edges": slopes_c[0] > 0.0 and slopes_c[1] > 0.0,
    }
    reports.append(PanelReport("c", sc, checks_c, all(checks_c.values())))

    cfg_d = reference_sweep_configs()["d"]
    res_d = run_sweep(cfg_d)
    results["d"] = res_d
    sd = res_d.summary
    slopes_d = edge_error_slopes(res_d) or (0.0, 0.0)
    checks_d = {
        "interior_correlation>=0.95": sd.get("correlation_interior", 0.0) >= 0.95,
        "error_grows_toward_edges": slopes_d[0] > 0.0 and slopes_d[1] > 0.0,
    }
    reports.append(PanelReport("d", sd, checks_d, all(checks_d.values())))

    if outdir is not None:
        import os

        os.makedirs(outdir, exist_ok=True)
        write_outputs(res_a, os.path.join(outdir, "fig_a.csv"))
        _write_error_view(res_a, os.path.join(outdir, "fig_b.csv"))
        write_outputs(res_c, os.path.join(outdir, "fig_c.csv"))
        write_outputs(res_d, os.path.join(outdir, "fig_d.csv"))
    return reports, results


def _panel_c_config() -> SweepConfig:
    """Sweep over j1 with the grid {j1+1/2, 201/2, j1+3; 1, 60, 61;
    j1+3/2, 225/2, 99/2}: realized as a 3nj-style scan by rebuilding the
    9j at each point, encoded through the derived-slot mechanism."""
    return DerivedNineJSweep(
        base={"j2": 201, "s": 2, "j4": 120, "j34": 122, "j24": 225, "j5": 99},
        derived={"j1": lambda t: t + 1, "j12": lambda t: t + 6, "j13": lambda t: t + 3},
        sweep_slot="j1_base",
        start_twice=127,   # swept parameter is half-odd: 63.5 .. 159.5
        stop_twice=319,
        step_twice=2,
    )


def _write_error_view(result: SweepResult, csv_path: str) -> None:
    """Panel-b style output: sweep value against |exact - asym|."""
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("sweep_twice,abs_err,flag\n")
        for row in result.rows:
            if row.abs_err:
                fh.write(f"{row.sweep_twice},{row.abs_err},{row.flag}\n")
    plot_path = csv_path.rsplit(".", 1)[0] + ".gnuplot"
    name = csv_path.rsplit("/", 1)[-1]
    with open(plot_path, "w", encoding="utf-8") as fh:
        fh.write(
            "\n".join(
                [
                    "set datafile separator ','",
                    "set title 'absolute error, exact vs asymptotic'",
                    "set logscale y",
                    f"plot '{name}' using ($1/2):2 every ::1 with points pt 7 ps 0.5 title '|exact-asym|'",
                    "pause -1",
                ]
            )
            + "\n"
        )
