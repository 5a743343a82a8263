"""Sweep harness: exact-vs-asymptotic comparisons, CSV + plot emission.

A sweep varies one spin slot of a symbol over an inclusive twice-integer
range, evaluates the exact engine and/or an asymptotic formula at every
Clebsch-Gordan-allowed point, and emits one CSV row per point:

    sweep_twice, exact, asym, abs_err, vol_1..vol_P, flag

Exact values are closed :class:`SqrtRational` numbers, written from
integers by ``SqrtRational.to_decimal``; every value has 17 significant
digits and the summary metrics are recomputed from the formatted text, so
a sweep is reproducible bit-for-bit and the CSV is self-contained.

The fig4 reference study is one table of sweeps,
:func:`reference_sweep_configs` (panels a, c and d; panel b is the error
view of a), which :func:`fig4_suite` runs in one call and checks.  Every
CSV comes with a gnuplot script from one writer.

The points of one call (one sweep, or all three fig4 sweeps) are spread
over W processes when enough of them need an exact 9j, 15j or 3nj value:
W = min(usable CPUs, such points // ``_MIN_SHARE``), and point i is
evaluated by share i mod W, share 0 in the calling process and each other
share in a child forked once per call.  W is 1, with no fork, off Linux,
while a second Python thread runs, or below 2 * ``_MIN_SHARE`` such
points, so a sweep of 6j values or of asymptotics alone runs in the
calling process.  Rows are put back in sweep order, so every row, summary
and output byte is the same for every W; there is no option to set it.
"""

from __future__ import annotations

import marshal
import math
import os
import sys
import threading
from dataclasses import astuple, dataclass, field

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
from .exact import _GRID_SLOTS, Symbol3nj, Symbol9j, wigner6j, wigner9j, wigner3nj
from .geometry import Tetrahedron
from .halfint import HalfInt, sixj_ok

SLOT_NAMES = {
    "6j": ("a", "b", "c", "d", "e", "f"),
    "9j": _GRID_SLOTS,
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
    """Exact value of a symbol from :func:`build_symbol`."""
    if kind == "6j":
        return wigner6j(*sym)
    if kind == "9j":
        return wigner9j(sym, pivot=pivot).value
    return wigner3nj(sym)   # 15j: a 3nj chain with n = 5


def _edmonds(sym) -> float:
    a, b, c, d, e, f = sym   # {a b c; b+m a+n f}
    return edmonds_6j(a, b, c, d - b, e - a, f)


#: The asymptotic formulas by name: the symbol kind each applies to and
#: its call (sym, marking) -> (value, diagnostics); ``edmonds`` has no
#: diagnostics (None).
ASYM_FORMULAS = {
    "pr6j": ("6j", lambda sym, mark: pr_6j(sym)),
    "edmonds": ("6j", lambda sym, mark: (_edmonds(sym), None)),
    "asym9j": ("9j", lambda sym, mark: asym_9j_one_small(sym)),
    "asym3nj": ("3nj", asym_3nj),
    **{name: ("15j", func) for name, (func, _) in CLOSED_15J_FORMS.items()},
}

#: The top-level keys of a sweep config document.
CONFIG_KEYS = ("kind", "n", "spins_twice", "sweep", "formulas", "marking",
               "trim_fraction", "out")


def default_marking(formula: str, small_jk=("j", 1)) -> SmallSpinMarking:
    """The marking a chain formula runs with when no small-l set is given:
    the small j/k spin at ``small_jk`` and the small-l set a closed 15j
    form is written for (none for ``asym3nj``)."""
    form = CLOSED_15J_FORMS.get(formula)
    return SmallSpinMarking(small_jk, form[1].small_l if form else frozenset())


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
    marking: SmallSpinMarking | None = None
    trim_fraction: float = 0.1
    out: str | None = None
    # slot -> twice offset from the swept value; empty means {sweep_slot: 0}
    offsets: dict = field(default_factory=dict)

    @classmethod
    def from_json(cls, text: str) -> "SweepConfig":
        import json

        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError({"<document>": f"invalid JSON: {exc}"}) from exc
        if not isinstance(doc, dict):
            raise ConfigError({"<document>": "must be a JSON object"})
        problems = {key: "unknown key" for key in doc if key not in CONFIG_KEYS}
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
        # a JSON true or false loads as a bool, which isinstance(v, int) takes
        for key in ("start_twice", "stop_twice"):
            if type(sweep.get(key)) is not int:
                problems[f"sweep.{key}"] = "must be a twice-integer"
        step = sweep.get("step_twice", 2)
        if type(step) is not int or step <= 0:
            problems["sweep.step_twice"] = "must be a positive integer (twice-units)"
        for name, value in spins.items():
            if slots and name not in slots:
                problems[f"spins_twice.{name}"] = f"not a slot of a {kind} symbol"
            elif type(value) is not int:
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
        if "marking" in doc and kind not in CHAIN_KINDS:
            problems["marking"] = f"a {kind} sweep reads no marking; only 15j and 3nj do"
        elif "marking" in doc:
            try:
                m = doc["marking"]
                marking = SmallSpinMarking(m["small_jk"], m.get("small_l", ()))
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                problems["marking"] = f"invalid marking: {exc}"
        if kind in CHAIN_KINDS and "marking" not in problems:
            if asym and asym[0] in CLOSED_15J_FORMS:
                expected = CLOSED_15J_FORMS[asym[0]][1]
                if marking not in (None, expected):
                    problems["marking"] = (
                        f"{asym[0]} assumes small_jk ['j', 1] and small_l "
                        f"{sorted(expected.small_l)}; omit the marking or match it"
                    )
            elif asym and marking is None:
                problems["marking"] = "3nj asymptotics need a small-spin marking"
            elif marking is not None and isinstance(n, int) and marking.small_jk[1] > n:
                problems["marking"] = f"small_jk index {marking.small_jk[1]} exceeds n = {n}"
        trim = doc.get("trim_fraction", 0.1)
        if type(trim) not in (int, float) or not 0.0 <= trim <= 0.5:
            problems["trim_fraction"] = "must be a number in [0, 0.5]"
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
            marking=marking,
            trim_fraction=float(trim),
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


@dataclass
class SweepResult:
    config: SweepConfig
    rows: list
    n_volume_columns: int
    summary: dict = field(default_factory=dict)

    def csv_text(self) -> str:
        n_vol = self.n_volume_columns
        lines = [["sweep_twice", "exact", "asym", "abs_err",
                  *(f"vol_{i + 1}" for i in range(n_vol)), "flag"]]
        for row in self.rows:
            vols = [_fmt(v) for v in row.volumes]
            lines.append([str(row.sweep_twice), row.exact, row.asym, row.abs_err, *vols,
                          *[""] * (n_vol - len(vols)), row.flag])
        return _csv(lines)


def _csv(lines) -> str:
    return "".join(",".join(line) + "\n" for line in lines)


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Evaluate one sweep; row errors are recorded in-row, never raised.

    Points whose symbol has a Clebsch-Gordan-forbidden triad are skipped.
    """
    return _run_sweeps([cfg])[0]


def _run_sweeps(configs) -> list:
    """Evaluate the sweeps of one call together, one :class:`SweepResult`
    per config: their allowed points, listed in sweep order, are evaluated
    by :func:`_evaluate_points`."""
    points, ends, n_costly = [], [], 0
    for cfg in configs:
        asym_formula = next((f for f in cfg.formulas if f != "exact"), None)
        marking = cfg.marking or (default_marking(asym_formula) if asym_formula else None)
        names = slot_names(cfg.kind, cfg.n)
        offsets = cfg.offsets or {cfg.sweep_slot: 0}
        for t_sweep in range(cfg.start_twice, cfg.stop_twice + 1, cfg.step_twice):
            spins = {**cfg.spins_twice, **{s: t_sweep + dt for s, dt in offsets.items()}}
            sym = build_symbol(cfg.kind, [spins[s] for s in names], cfg.n)
            if _triads_allowed(cfg.kind, sym):
                points.append((cfg, sym, t_sweep, asym_formula, marking))
        if _costly(cfg):
            n_costly += len(points) - (ends[-1] if ends else 0)
        ends.append(len(points))

    rows = _evaluate_points(points, _share_count(n_costly))
    results = []
    for cfg, lo, hi in zip(configs, [0, *ends], ends):
        n_vol = max((len(r.volumes) for r in rows[lo:hi]), default=0)
        result = SweepResult(cfg, rows[lo:hi], n_vol)
        result.summary = summarize(result)
        results.append(result)
    return results


def _costly(cfg) -> bool:
    """Whether each point of ``cfg`` needs an exact 9j, 15j or 3nj value:
    the only rows measured to pay for a forked share."""
    return cfg.kind != "6j" and "exact" in cfg.formulas


#: Fewest costly points (see :func:`_costly`) a process is given.  On a
#: 2-vCPU x86-64 VM one fork, pipe and reap round trip took 2.3 ms.  The
#: cheapest costly rows measured, exact 9j values with two zero spins, took
#: 180 us each, and 128 of them ran 22.9 -> 20.9 ms on two processes; 128
#: exact 9j rows with spins near 100 ran 118 -> 69 ms, and exact 3nj and
#: 15j rows cost 2-4 ms each even with zero spins.  A pr6j row took
#: 25-50 us and paid for a fork at no size up to 1000 rows, and an exact 6j
#: row with a zero spin costs as little, so 6j rows do not count.  64 keeps
#: the 155 points of fig4 on two processes.
_MIN_SHARE = 64


def _usable_cpus() -> int:
    """CPUs this process may run on, capped by the whole CPUs of a cgroup
    CPU quota when one is set (v2 ``cpu.max``, v1 ``cpu.cfs_quota_us``)."""
    cpus = len(os.sched_getaffinity(0))
    for files in (("cpu.max",), ("cpu/cpu.cfs_quota_us", "cpu/cpu.cfs_period_us")):
        try:
            fields = []
            for name in files:
                with open("/sys/fs/cgroup/" + name, encoding="ascii") as fh:
                    fields += fh.read().split()
        except OSError:
            continue
        if fields[0] not in ("max", "-1"):
            cpus = min(cpus, max(1, int(fields[0]) // int(fields[1])))
        break
    return cpus


def _share_count(n_costly: int) -> int:
    """W, the number of processes for a call with ``n_costly`` costly
    points: one per usable CPU and at most one per ``_MIN_SHARE`` of them,
    on Linux with one Python thread running (a fork copies no other
    thread); otherwise 1."""
    if (sys.platform != "linux" or threading.active_count() != 1
            or n_costly < 2 * _MIN_SHARE):
        return 1
    return min(_usable_cpus(), n_costly // _MIN_SHARE)


def _evaluate_points(points, w: int) -> list:
    """The rows of ``points``, (cfg, sym, t_sweep, asym_formula, marking)
    tuples, in order.  Point i goes to share i mod ``w``: this process
    evaluates share 0, and a child forked once per call each other share,
    which it writes back through a pipe.  On any failure every child is
    killed and reaped, and an ``Exception`` makes this process evaluate all
    points, so the rows, or the error, are those of W = 1.  A child never
    returns or raises from here: it leaves through ``os._exit``, with
    status 0 only once it has written all its rows."""
    parent = os.getpid()
    children = []                  # (pid, pipe read end) of each unreaped child
    try:
        for share in range(1, w):
            fd_in, fd_out = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(fd_in)
                os.close(fd_out)
                raise
            if pid == 0:
                _write_rows(fd_out, [_evaluate_point(*point) for point in points[share::w]])
                os._exit(0)
            os.close(fd_out)
            children.append((pid, fd_in))
        shares = [[_evaluate_point(*point) for point in points[::w]]]
        while children:
            shares.append(_read_child(children))
        rows = [None] * len(points)
        for share, share_rows in enumerate(shares):
            rows[share::w] = share_rows
        return rows
    except BaseException as exc:
        if os.getpid() != parent:  # a child, even one interrupted as it starts
            os._exit(1)
        _stop(children)
        if not isinstance(exc, Exception):
            raise
    return [_evaluate_point(*point) for point in points]


def _write_rows(fd, rows) -> None:
    payload = memoryview(marshal.dumps([astuple(row) for row in rows]))
    while payload:
        payload = payload[os.write(fd, payload):]


def _read_child(children) -> list:
    """Read the rows of the first child in ``children`` to EOF, reap it and
    drop it from the list."""
    pid, fd = children[0]
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    status = os.waitpid(pid, 0)[1]
    del children[0]
    os.close(fd)
    if status:
        raise ChildProcessError(f"a sweep share exited with wait status {status}")
    return [SweepRow(*fields) for fields in marshal.loads(b"".join(chunks))]


def _stop(children) -> None:
    """Kill and reap every child in ``children`` and close its pipe."""
    import signal   # loaded only when a forked share fails

    for pid, fd in children:
        os.close(fd)
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass       # reaped already
    children.clear()


def _triads_allowed(kind: str, sym) -> bool:
    if kind == "6j":
        return sixj_ok(*(x.twice for x in sym))
    return sym.is_valid()


def _evaluate_point(cfg, sym, t_sweep, asym_formula, marking):
    row = SweepRow(sweep_twice=t_sweep)
    notes, diag = [], None
    if asym_formula is not None:
        try:
            value, diag = ASYM_FORMULAS[asym_formula][1](sym, marking)
            row.asym = _fmt(value)
        except WignerAsymError as exc:
            notes.append(f"asym: {exc}")
    row.volumes, row.flag = _geometry_columns(cfg, sym, asym_formula, marking, diag)
    if "exact" in cfg.formulas:
        try:
            row.exact = exact_value(cfg.kind, sym).to_decimal(17, strip_zeros=False)
        except WignerAsymError as exc:
            notes.insert(0, f"exact: {exc}")
    row.note = "; ".join(notes)
    if row.exact and row.asym:
        row.abs_err = _fmt(abs(float(row.exact) - float(row.asym)))
    return row


_FLAG_RANK = ("allowed", "near_caustic", "forbidden")


def _geometry_columns(cfg, sym, asym_formula, marking, diag):
    """Volumes of the oscillatory tetrahedra at this point, and the
    allowed/near-caustic/forbidden flag from the Cayley-Menger sign.  A
    formula that built its tetrahedra (the same edges, in the same order)
    recorded their volumes and any near-caustic flag in ``diag``: those are
    reused."""
    if diag is not None and diag.volumes:
        near = any(fl.startswith("near_caustic") for fl in diag.flags)
        return tuple(diag.volumes.values()), "near_caustic" if near else "allowed"
    vols = []
    flag = "allowed"
    try:
        if cfg.kind == "6j":
            if asym_formula == "edmonds":
                return (), "allowed"
            tets = [Tetrahedron.from_spins(sym)]
        else:
            if cfg.kind == "9j":
                sym, marking = sym.as_chain(), SmallSpinMarking(("j", 1))
            elif marking is None:
                return (), "allowed"
            tets = list(oscillatory_tetrahedra(sym, marking).values())
            if any(tet is None for tet in tets):
                return (), "forbidden"
        for tet in tets:
            flag = max(flag, tet.status(), key=_FLAG_RANK.index)
            vols.append(math.sqrt(max(tet.cayley_menger(), 0.0) / 288.0))
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
    out = {
        "n_rows": len(rows),
        "n_compared": len(have),
        "near_caustic_fraction": (
            sum(1 for r in rows if r.flag == "near_caustic") / len(rows) if rows else 0.0
        ),
    }
    interior = []
    if rows:
        lo, hi = min(r.sweep_twice for r in rows), max(r.sweep_twice for r in rows)
        trim = cfg.trim_fraction * (hi - lo)
        interior = [r for r in have if lo + trim <= r.sweep_twice <= hi - trim]
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


def _centred_sums(xs, ys):
    """sum (x - mean)^2, sum (y - mean)^2 and sum (x - mean)(y - mean)."""
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) ** 2 for x in xs), sum((y - my) ** 2 for y in ys),
            sum((x - mx) * (y - my) for x, y in zip(xs, ys)))


def _pearson(xs, ys) -> float:
    if len(xs) < 2:
        return float("nan")
    sxx, syy, sxy = _centred_sums(xs, ys)
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
    low, high = have[:n_points], have[-n_points:]

    def slope(rows, xs):
        # xs: distance toward the boundary
        sxx, _, sxy = _centred_sums(xs, [float(r.abs_err) for r in rows])
        return sxy / sxx if sxx else 0.0

    return (slope(low, [low[-1].sweep_twice - r.sweep_twice for r in low]),
            slope(high, [r.sweep_twice - high[0].sweep_twice for r in high]))


# ----------------------------------------------------------------------
# Output files
# ----------------------------------------------------------------------

def _write_plot(csv_path: str, csv_text: str, settings: list, curves: list) -> None:
    """Write ``csv_text`` to ``csv_path`` and a companion gnuplot script that
    applies ``settings`` and plots each (column, style, title) curve
    against the swept value."""
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(csv_text)
    name = csv_path.rsplit("/", 1)[-1]
    plots = [f"'{name}' using ($1/2):{col} every ::1 with {style} title '{title}'"
             for col, style, title in curves]
    script = ["set datafile separator ','", *settings, "plot " + ", \\\n     ".join(plots),
              "pause -1"]
    with open(csv_path.rsplit(".", 1)[0] + ".gnuplot", "w", encoding="utf-8") as fh:
        fh.write("\n".join(script) + "\n")


def write_outputs(result: SweepResult, csv_path: str) -> None:
    """Write the CSV and a companion gnuplot script (points = exact,
    line = asymptotic)."""
    cfg = result.config
    _write_plot(
        csv_path, result.csv_text(),
        [f"set title '{cfg.kind} sweep over {cfg.sweep_slot}'",
         f"set xlabel '{cfg.sweep_slot}'", "set key left top"],
        [(2, "points pt 7 ps 0.5", "exact"), (3, "lines lw 1", "asymptotic")],
    )


def _write_error_view(result: SweepResult, csv_path: str) -> None:
    """Panel-b style output: sweep value against |exact - asym|."""
    rows = [[str(r.sweep_twice), r.abs_err, r.flag] for r in result.rows if r.abs_err]
    _write_plot(
        csv_path, _csv([["sweep_twice", "abs_err", "flag"], *rows]),
        ["set title 'absolute error, exact vs asymptotic'", "set logscale y"],
        [(2, "points pt 7 ps 0.5", "|exact-asym|")],
    )


# ----------------------------------------------------------------------
# The fig4 reference study (one small spin, eight large)
# ----------------------------------------------------------------------

def _reference_9j(panel: str, twice: tuple, slot: str, start: int, stop: int,
                  **offsets) -> SweepConfig:
    """An exact-vs-asym9j sweep of the 9j with twice-spins ``twice`` in
    slot order, None where the sweep sets the spin."""
    return SweepConfig(
        kind="9j", sweep_slot=slot, start_twice=start, stop_twice=stop,
        spins_twice={s: t for s, t in zip(SLOT_NAMES["9j"], twice) if t is not None},
        formulas=("exact", "asym9j"), out=f"fig_{panel}.csv", offsets=offsets,
    )


def reference_sweep_configs() -> dict:
    """The reference 9j sweeps, by panel:

    a: {430 30 430; 1 60 61; 431 j24 430}, j24 over its allowed window;
    c: {j1+1/2 201/2 j1+3; 1 60 61; j1+3/2 225/2 99/2}: j1, j12 and j13
       move with the half-odd swept parameter j1_base = 63.5 .. 159.5;
    d: {51/2 53/2 28; 1/2 47/2 24; 25 27 j5}, j5 over its allowed window.

    Panel b is the error view of sweep a.
    """
    return {
        "a": _reference_9j("a", (860, 60, 860, 2, 120, 122, 862, None, 860), "j24", 60, 180),
        "c": _reference_9j("c", (None, 201, None, 2, 120, 122, None, 225, 99), "j1_base",
                           127, 319, j1=1, j12=6, j13=3),
        "d": _reference_9j("d", (51, 53, 56, 1, 47, 48, 50, 54, None), "j5", 8, 104),
    }


@dataclass
class PanelReport:
    name: str
    summary: dict
    checks: dict

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def fig4_suite(outdir: str | None = None):
    """Run the reference sweeps and evaluate their agreement checks.

    Returns (reports, results).  Panel b is the error view of panel a and
    shares its sweep.  Thresholds: panel a needs interior correlation
    >= 0.99 and pointwise interior |err| <= 0.1 max|exact|; panels c and d
    need interior correlation >= 0.95 and the error must trend upward over
    the 5 outermost compared points at each end.
    """
    configs = reference_sweep_configs()
    results = dict(zip(configs, _run_sweeps(list(configs.values()))))
    s = results["a"].summary
    reports = [
        PanelReport("a", s, {
            "interior_correlation>=0.99": s.get("correlation_interior", 0.0) >= 0.99,
            "interior_err<=0.1*max_exact": (
                s.get("max_abs_err_interior", math.inf) <= 0.1 * s.get("max_abs_exact", 0.0)
            ),
        }),
        # panel b: the |exact - asym| column of sweep a, emitted separately
        PanelReport(
            "b",
            {"n_rows": s.get("n_rows"), "source": "abs_err column of panel a"},
            {"err_column_present": all(bool(r.abs_err) for r in results["a"].rows
                                       if r.exact and r.asym)},
        ),
    ]
    for panel in ("c", "d"):
        summary = results[panel].summary
        slopes = edge_error_slopes(results[panel]) or (0.0, 0.0)
        reports.append(PanelReport(panel, summary, {
            "interior_correlation>=0.95": summary.get("correlation_interior", 0.0) >= 0.95,
            "error_grows_toward_edges": slopes[0] > 0.0 and slopes[1] > 0.0,
        }))

    if outdir is not None:
        os.makedirs(outdir, exist_ok=True)
        for result in results.values():
            write_outputs(result, os.path.join(outdir, result.config.out))
        _write_error_view(results["a"], os.path.join(outdir, "fig_b.csv"))
    return reports, results
