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
from .exact import PIVOTS, Symbol3nj, Symbol9j, wigner6j, wigner9j, wigner3nj
from .geometry import DEFAULT_CAUSTIC_EPS, FACES, Tetrahedron
from .halfint import HalfInt, triad_allowed
from .sqrtrat import SqrtRational

SLOT_NAMES = {
    "6j": ("a", "b", "c", "d", "e", "f"),
    "9j": ("j1", "j2", "j12", "s", "j4", "j34", "j13", "j24", "j5"),
}

CHAIN_KINDS = ("15j", "3nj")


def slot_names(kind: str, n: int = 5) -> tuple:
    """The slots of a symbol kind, in the order :func:`build_symbol` reads
    them (a 15j is the n = 5 chain)."""
    if kind in SLOT_NAMES:
        return SLOT_NAMES[kind]
    if kind == "15j":
        n = 5
    return tuple(
        f"{row}{i}" for row in ("j", "k", "l") for i in range(1, n + 1)
    )


def build_symbol(kind: str, twice, n: int = 5):
    """A 6j tuple of ``HalfInt``, a :class:`Symbol9j` or a
    :class:`Symbol3nj` from twice-integer spins in slot order."""
    names = slot_names(kind, n)
    if len(twice) != len(names):
        raise ValueError(f"expected {len(names)} twice-integer spins, got {len(twice)}")
    spins = [HalfInt.from_twice(t) for t in twice]
    if kind == "6j":
        return tuple(spins)
    if kind == "9j":
        return Symbol9j(*spins)
    n = len(spins) // 3
    return Symbol3nj(tuple(spins[:n]), tuple(spins[n:2 * n]), tuple(spins[2 * n:]))


def exact_value(kind: str, sym, pivot: str = "j24"):
    """(exact value, 9j term trace) of a symbol from :func:`build_symbol`;
    the trace is empty for the other kinds."""
    if kind == "6j":
        return wigner6j(*sym), []
    if kind == "9j":
        res = wigner9j(sym, pivot=pivot)
        return res.value, res.terms
    return wigner3nj(sym), []   # 15j: a 3nj chain with n = 5


def _edmonds(sym, lengths: str) -> float:
    a, b, c, d, e, f = sym   # {a b c; b+m a+n f}
    return edmonds_6j(a, b, c, d - b, e - a, f, lengths)


#: The asymptotic formulas by name: the symbol kind each applies to and
#: its call (sym, marking, caustic_eps, edmonds_lengths) -> (value,
#: diagnostics); ``edmonds`` has no diagnostics (None).
ASYM_FORMULAS = {
    "pr6j": ("6j", lambda sym, mark, eps, lengths: pr_6j(sym, eps)),
    "edmonds": ("6j", lambda sym, mark, eps, lengths: (_edmonds(sym, lengths), None)),
    "asym9j": ("9j", lambda sym, mark, eps, lengths: asym_9j_one_small(sym, eps)),
    "asym3nj": ("3nj", lambda sym, mark, eps, lengths: asym_3nj(sym, mark, eps)),
    **{
        name: ("15j", lambda sym, mark, eps, lengths, func=func: func(sym, mark, eps))
        for name, (func, _) in CLOSED_15J_FORMS.items()
    },
}


def default_marking(formula: str, small_jk=("j", 1)) -> SmallSpinMarking:
    """The marking a chain formula runs with when no small-l set is given:
    the small j/k spin at ``small_jk`` and the small-l set a closed 15j
    form is written for (none for ``asym3nj``)."""
    return SmallSpinMarking(small_jk, CLOSED_15J_FORMS.get(formula, (None, frozenset()))[1])


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
    # slot -> twice offset from the swept value; empty means {sweep_slot: 0}
    offsets: dict = field(default_factory=dict)

    @classmethod
    def from_json(cls, text: str) -> "SweepConfig":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError({"<document>": f"invalid JSON: {exc}"}) from exc
        if not isinstance(doc, dict):
            raise ConfigError({"<document>": "must be a JSON object"})
        problems = {}
        kind = doc.get("kind")
        if kind not in ("6j", "9j", *CHAIN_KINDS):
            problems["kind"] = f"expected 6j|9j|15j|3nj, got {kind!r}"
        n = doc.get("n", 5)
        if kind == "15j":
            n = 5
        elif kind == "3nj" and not (isinstance(n, int) and n >= 3):
            problems["n"] = f"must be an integer >= 3, got {n!r}"
        slots = () if "kind" in problems or "n" in problems else slot_names(kind, n)
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
        formulas = doc.get("formulas", ["exact"])
        if not (isinstance(formulas, list) and all(isinstance(f, str) for f in formulas)):
            problems["formulas"] = "must be a list of formula names"
            formulas = []
        for f in formulas:
            if f != "exact" and f not in ASYM_FORMULAS:
                problems["formulas"] = f"unknown formula {f!r}"
            elif f != "exact" and kind and ASYM_FORMULAS[f][0] != kind:
                problems["formulas"] = f"{f} does not apply to a {kind} symbol"
        asym = [f for f in formulas if f != "exact"]
        if len(asym) > 1:
            problems["formulas"] = "at most one asymptotic formula per sweep"
        marking = None
        if "marking" in doc:
            try:
                m = doc["marking"]
                marking = SmallSpinMarking(
                    (m["small_jk"][0], int(m["small_jk"][1])),
                    frozenset(int(i) for i in m.get("small_l", ())),
                )
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                problems["marking"] = f"invalid marking: {exc}"
        if kind in CHAIN_KINDS and asym and "marking" not in problems:
            if asym[0] in CLOSED_15J_FORMS:
                expected = default_marking(asym[0])
                if marking not in (None, expected):
                    problems["marking"] = (
                        f"{asym[0]} assumes small_jk ['j', 1] and small_l "
                        f"{sorted(expected.small_l)}; omit the marking or match it"
                    )
            elif marking is None:
                problems["marking"] = "3nj asymptotics need a small-spin marking"
            elif isinstance(n, int) and marking.small_jk[1] > n:
                problems["marking"] = f"small_jk index {marking.small_jk[1]} exceeds n = {n}"
        pivot = doc.get("pivot", "j24")
        if pivot not in PIVOTS + ("j34",):
            problems["pivot"] = f"expected one of {', '.join(PIVOTS + ('j34',))}, got {pivot!r}"
        numbers = {}
        for key, default, upper in (("caustic_eps", DEFAULT_CAUSTIC_EPS, math.inf),
                                    ("trim_fraction", 0.1, 0.5)):
            try:
                numbers[key] = float(doc.get(key, default))
            except (TypeError, ValueError):
                numbers[key] = math.nan
            if not 0.0 <= numbers[key] <= upper:
                problems[key] = f"must be a number in [0, {upper}]"
        lengths = doc.get("edmonds_lengths", "half")
        if lengths not in ("half", "sqrt"):
            problems["edmonds_lengths"] = f"expected half|sqrt, got {lengths!r}"
        out = doc.get("out")
        if out is not None and not isinstance(out, str):
            problems["out"] = "must be a file path"
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
            formulas=tuple(formulas),
            n=n,
            pivot=pivot,
            marking=marking,
            caustic_eps=numbers["caustic_eps"],
            trim_fraction=numbers["trim_fraction"],
            edmonds_lengths=lengths,
            out=out,
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


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Evaluate one sweep; row errors are recorded in-row, never raised.

    Points whose symbol has a Clebsch-Gordan-forbidden triad are skipped.
    """
    asym_formula = next((f for f in cfg.formulas if f != "exact"), None)
    marking = cfg.marking or (default_marking(asym_formula) if asym_formula else None)
    names = slot_names(cfg.kind, cfg.n)
    offsets = cfg.offsets or {cfg.sweep_slot: 0}
    rows = []
    for t_sweep in range(cfg.start_twice, cfg.stop_twice + 1, cfg.step_twice):
        spins = {**cfg.spins_twice, **{s: t_sweep + dt for s, dt in offsets.items()}}
        sym = build_symbol(cfg.kind, [spins[s] for s in names], cfg.n)
        if _triads_allowed(cfg.kind, sym):
            rows.append(_evaluate_point(cfg, sym, t_sweep, asym_formula, marking))

    n_vol = max((len(r.volumes) for r in rows), default=0)
    result = SweepResult(cfg, rows, n_vol)
    result.summary = summarize(result)
    return result


def _triads_allowed(kind: str, sym) -> bool:
    if kind == "6j":
        return all(triad_allowed(*(sym[i] for i in face)) for face in FACES)
    return sym.is_valid()


def _evaluate_point(cfg, sym, t_sweep, asym_formula, marking):
    row = SweepRow(sweep_twice=t_sweep)
    row.volumes, row.flag = _geometry_columns(cfg, sym, asym_formula, marking)
    if "exact" in cfg.formulas:
        try:
            row.exact = _fmt_exact(exact_value(cfg.kind, sym, cfg.pivot)[0])
        except WignerAsymError as exc:
            row.note = f"exact: {exc}"
    if asym_formula is not None:
        try:
            value, diag = ASYM_FORMULAS[asym_formula][1](sym, marking, cfg.caustic_eps,
                                                         cfg.edmonds_lengths)
            row.asym = _fmt(value)
            if diag is not None:
                row.sigma_cases = tuple(sc["case"] for sc in diag.sign_configs)
        except WignerAsymError as exc:
            row.note = (row.note + "; " if row.note else "") + f"asym: {exc}"
    if row.exact and row.asym:
        err = abs(float(row.exact) - float(row.asym))
        row.abs_err = _fmt(err)
    return row


def _geometry_columns(cfg, sym, asym_formula, marking):
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
    """The single-slot reference 9j sweeps, by panel:

    a: {430 30 430; 1 60 61; 431 j24 430}, j24 over its allowed window;
    d: {51/2 53/2 28; 1/2 47/2 24; 25 27 j5}, j5 over its allowed window.
    Panel b is the error view of sweep a; panel c moves three slots with
    its swept parameter (``_panel_c_config``).  ``fig4_suite`` runs all
    four.
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
    j1+3/2, 225/2, 99/2}: j1, j12 and j13 move with the half-odd swept
    parameter j1_base, at fixed twice offsets."""
    return SweepConfig(
        kind="9j",
        spins_twice={"j2": 201, "s": 2, "j4": 120, "j34": 122, "j24": 225, "j5": 99},
        sweep_slot="j1_base",
        start_twice=127,   # swept parameter is half-odd: 63.5 .. 159.5
        stop_twice=319,
        formulas=("exact", "asym9j"),
        offsets={"j1": 1, "j12": 6, "j13": 3},
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
