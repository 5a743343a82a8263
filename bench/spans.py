"""In-memory spans around the public functions of each package layer.

``install`` wraps every function listed in ``API`` and replaces it at every
place a ``wigner_asym`` module holds it by name, so calls between modules
and within a module go through the wrapper too.  The package itself is not
edited.  Each span holds its name, start, end, parent span, run id and
request id; spans stay in memory until the unit ends and are then written
out.  A layer's self time is the time of its spans minus the time of their
child spans, so the self times of all layers plus the benchmark's own
spans add up to the traced wall time.

Layers are the package's modules.  ``prime_exponent_in_factorial`` is not
wrapped: it is the per-(prime, term) kernel of the factorial ledger, called
tens of thousands of times per 6j and only from ``primefac`` itself, so its
time lands in ``primefac`` either way and a span per call would only add
overhead.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import Counter, defaultdict

from workloads import chain_valid, ninej_valid, pair_window, sixj_valid

# (layer, module, class or None, public names)
API = (
    ("primefac", "primefac", "FactorialLedger",
     ("primes_upto", "factorial_exponents", "combined_exponents", "factorial",
      "factorial_quotient", "sqrt_factorial_quotient")),
    ("sqrtrat", "sqrtrat", "SqrtRational",
     ("__init__", "of", "zero", "from_canonical", "value_squared", "to_mpf",
      "__float__", "__neg__", "__mul__", "__rmul__")),
    ("exact", "exact", None,
     ("wigner3j", "wigner6j", "wigner9j", "wigner15j", "wigner3nj")),
    ("geometry", "geometry", "Tetrahedron",
     ("__init__", "from_spins", "cayley_menger", "caustic_tolerance", "status")),
    ("geometry", "geometry", None,
     ("edge_length_from_spin", "triangle_angle", "volume", "dihedral_internal",
      "dihedral_external", "regge_action", "schlafli_residual", "embed_vertices",
      "euler_from_glued_triangles", "build_sigma_tet", "omega_classify", "f_phase")),
    ("wigner_d", "wigner_d", None,
     ("small_d", "d_symmetry_flip", "su2_euler_product", "su2_extract_euler",
      "rotation_y", "rotation_z")),
    ("asymptotics", "asymptotics", None,
     ("pr_6j", "edmonds_6j", "asym_9j_one_small", "validate_hypotheses",
      "normalize_marking", "asym_3nj", "asym_3nj_xi_sum", "asym_15j_one_small",
      "asym_15j_two_small", "asym_15j_three_small", "asym_15j_four_small")),
    ("harness", "harness", None,
     ("run_sweep", "summarize", "edge_error_slopes", "write_outputs",
      "reference_sweep_configs", "fig4_suite")),
    ("harness", "harness", "SweepConfig", ("from_json",)),
    ("harness", "harness", "SweepResult", ("csv_text",)),
    ("cli", "cli", None,
     ("main", "build_parser", "cmd_exact", "cmd_asym", "cmd_sweep", "cmd_verify")),
)

CHAIN = ("exact.wigner9j", "exact.wigner15j", "exact.wigner3nj")
CAPTURE_ARGS = ("exact.wigner6j",) + CHAIN
CAPTURE_RESULT = ("harness.run_sweep",)
FORMAT = ("harness.write_outputs", "harness.SweepResult.csv_text")
CAYLEY_MENGER = "geometry.Tetrahedron.cayley_menger"

NINEJ_SLOTS = ("j1", "j2", "j12", "s", "j4", "j34", "j13", "j24", "j5")

# Entries the 9j sum pairs with the summation spin, by pivot.
NINEJ_PAIRS = {
    "j24": (("j1", "j5"), ("j2", "j34"), ("s", "j24")),
    "j2": (("j13", "j12"), ("j24", "j34"), ("s", "j2")),
    "j12": (("j13", "j2"), ("j5", "j4"), ("s", "j12")),
    "j5": (("j1", "j24"), ("j12", "j4"), ("s", "j5")),
    "j34": (("j1", "j24"), ("j12", "j4"), ("s", "j5")),
}

# Span record fields.
NAME, START, END, PARENT, RUN, REQ, EXC, DATA = range(8)
FIELDS = ("name", "start", "end", "parent", "run", "request")


class Tracer:
    def __init__(self, run_id: int):
        self.run_id = run_id
        self.names: list = []
        self._index: dict = {}
        self.spans: list = []
        self.stack: list = [-1]
        self.request = -1
        self.thread = threading.get_ident()
        self.patched: list = []
        self.missing: list = []

    def name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    # -- the benchmark's own spans ------------------------------------------

    def begin(self, name: str) -> None:
        idx = len(self.spans)
        if name == "bench.request":
            self.request = idx
        self.spans.append([self.name_index(name), time.perf_counter(), 0.0,
                           self.stack[-1], self.run_id, self.request, None, None])
        self.stack.append(idx)

    def end(self) -> None:
        self.spans[self.stack.pop()][END] = time.perf_counter()

    # -- wrappers -----------------------------------------------------------

    def wrap(self, fn, name: str):
        idx = self.name_index(name)
        capture = 1 if name in CAPTURE_ARGS else 2 if name in CAPTURE_RESULT else 0
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        owner, get_ident, run_id, tracer = self.thread, threading.get_ident, self.run_id, self

        def traced(*args, **kwargs):
            if get_ident() != owner:
                return fn(*args, **kwargs)
            rec = [idx, 0.0, 0.0, stack[-1], run_id, tracer.request, None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[END] = clock()
                stack.pop()
                rec[EXC] = type(exc)
                raise
            rec[END] = clock()
            stack.pop()
            if capture == 1:
                rec[DATA] = (args, kwargs)
            elif capture == 2:
                rec[DATA] = result
            return result

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "wigner_asym" or n.startswith("wigner_asym.")]
        for layer, module, owner, names in API:
            mod = sys.modules.get(f"wigner_asym.{module}")
            holder = getattr(mod, owner, None) if owner else mod
            for attr in names:
                label = ".".join(filter(None, (layer, owner, attr)))
                if owner:
                    raw = vars(holder).get(attr) if holder is not None else None
                    if raw is None:
                        self.missing.append(label)
                        continue
                    if isinstance(raw, (classmethod, staticmethod)):
                        new = type(raw)(self.wrap(raw.__func__, label))
                    else:
                        new = self.wrap(raw, label)
                    self.patched.append((holder, attr, raw))
                    setattr(holder, attr, new)
                    continue
                orig = getattr(holder, attr, None) if holder is not None else None
                if orig is None:
                    self.missing.append(label)
                    continue
                new = self.wrap(orig, label)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            self.patched.append((m, key, orig))
                            setattr(m, key, new)

    def uninstall(self) -> None:
        for holder, attr, orig in reversed(self.patched):
            setattr(holder, attr, orig)
        self.patched.clear()

    # -- output -------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"run": self.run_id, "names": self.names,
                                 "fields": FIELDS}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec[:6]) + "\n")

    def summary(self, typed_error) -> dict:
        """Raw per-unit sums; ``run.py`` adds them over units."""
        spans = self.spans
        n = len(spans)
        name_of = [self.names[rec[NAME]] for rec in spans]
        layer_of = [name.split(".", 1)[0] for name in name_of]
        # A layer entry is a span whose caller is in another layer.
        is_entry = [rec[PARENT] < 0 or layer_of[rec[PARENT]] != layer_of[i]
                    for i, rec in enumerate(spans)]
        child = [0.0] * n
        for rec in spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        self_s, self_by_name = defaultdict(float), defaultdict(float)
        calls, entries = Counter(name_of), Counter()
        for i, rec in enumerate(spans):
            own = rec[END] - rec[START] - child[i]
            self_s[layer_of[i]] += own
            self_by_name[name_of[i]] += own
            entries[layer_of[i]] += is_entry[i]

        def ancestor(i, wanted) -> int:
            p = spans[i][PARENT]
            while p >= 0 and not wanted(p):
                p = spans[p][PARENT]
            return p

        # 6j calls that reached primefac, and Cayley-Menger evaluations
        # under each asymptotic formula call.
        computed = {ancestor(i, lambda p: name_of[p] == "exact.wigner6j")
                    for i in range(n) if is_entry[i] and layer_of[i] == "primefac"}
        cm_under = Counter(ancestor(i, lambda p: is_entry[p] and layer_of[p] == "asymptotics")
                           for i in range(n) if name_of[i] == CAYLEY_MENGER)
        out = Counter()
        by_formula = defaultdict(lambda: [0, 0])
        for i, rec in enumerate(spans):
            name, ok = name_of[i], rec[EXC] is None
            if name == "exact.wigner6j" and ok and _sixj_valid(*rec[DATA]):
                out["sixj_valid"] += 1
                out["sixj_computed"] += i in computed
            elif name in CHAIN and ok:
                out["chain_terms"] += _chain_terms(name, *rec[DATA])
            elif name in FORMAT and (rec[PARENT] < 0 or name_of[rec[PARENT]] not in FORMAT):
                out["format_s"] += rec[END] - rec[START]
            elif name == "harness.run_sweep" and ok:
                rows = getattr(rec[DATA], "rows", ())
                out["rows"] += len(rows)
                out["rows_noted"] += sum(1 for r in rows if getattr(r, "note", ""))
            elif is_entry[i] and layer_of[i] == "asymptotics":
                if ok:
                    by_formula[name.split(".", 1)[1]][0] += cm_under[i]
                    by_formula[name.split(".", 1)[1]][1] += 1
                elif issubclass(rec[EXC], typed_error):
                    out["asym_rejected"] += 1
        return {
            "wall": spans[0][END] - spans[0][START] if spans else 0.0,
            "spans": n,
            "self": dict(self_s),
            "self_by_name": dict(self_by_name),
            "calls": dict(calls),
            "entries": dict(entries),
            **{key: out[key] for key in ("sixj_valid", "sixj_computed", "chain_terms",
                                         "asym_rejected", "rows", "rows_noted", "format_s")},
            "cm_by_formula": dict(by_formula),
            "missing": self.missing,
        }


def _twice(x) -> int:
    from wigner_asym import HalfInt

    return HalfInt(x).twice


def _sixj_valid(args, kwargs) -> bool:
    return sixj_valid([_twice(x) for x in args[:6]])


def _chain_terms(name: str, args, kwargs) -> int:
    """Number of summation terms of a 9j/15j/3nj chain sum (0 when the
    symbol is invalid and the sum is never formed)."""
    if name == "exact.wigner9j":
        sym = args[0]
        pivot = args[1] if len(args) > 1 else kwargs.get("pivot", "j24")
        slots = {slot: _twice(getattr(sym, slot)) for slot in NINEJ_SLOTS}
        if not ninej_valid([slots[slot] for slot in NINEJ_SLOTS]):
            return 0
        return len(pair_window([(slots[p], slots[q]) for p, q in NINEJ_PAIRS[pivot]]))
    rows = args[:3] if name == "exact.wigner15j" else (args[0].j, args[0].k, args[0].l)
    tj, tk, tl = ([_twice(x) for x in row] for row in rows)
    if not chain_valid(tj, tk, tl):
        return 0
    return len(pair_window(list(zip(tj, tk))))


def install(run_id: int) -> Tracer:
    tracer = Tracer(run_id)
    tracer.install()
    return tracer
