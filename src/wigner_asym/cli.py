"""Command-line front end.

All spins are given as twice-integers (spin 1/2 -> 1, spin 30 -> 60), so
half-integer inputs never need fraction parsing.  Exit codes: 0 ok,
2 invalid input, 3 strict-mode geometric rejection, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import mpmath

from .asymptotics import CLOSED_15J_FORMS, SmallSpinMarking
from .errors import NotClassicallyAllowed, WignerAsymError
from .exact import PIVOTS, Symbol3nj, wigner15j
from .halfint import HalfInt
from .harness import (
    ASYM_FORMULAS,
    CHAIN_KINDS,
    SweepConfig,
    build_symbol,
    default_marking,
    exact_value,
    fig4_suite,
    run_sweep,
    write_outputs,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NOT_ALLOWED = 3
EXIT_VERIFY_FAILED = 4

#: CLI spellings of the harness formula names.
_FORMULA_ALIASES = {"9j": "asym9j", "3nj": "asym3nj"}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except NotClassicallyAllowed as exc:
        print(f"not classically allowed: {exc}", file=sys.stderr)
        if getattr(args, "strict_allowed", False):
            return EXIT_NOT_ALLOWED
        print("nan")
        return EXIT_OK
    except (ValueError, WignerAsymError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wigner-asym",
        description="Exact Wigner 3nj symbols and their semiclassical asymptotics "
                    "(all spins as twice-integers).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exact = sub.add_parser("exact", help="exact symbol values")
    p_exact.add_argument("symbol", choices=("6j", "9j", "15j", "3nj"))
    p_exact.add_argument("spins", nargs="+", type=int, help="twice-integer spins")
    p_exact.add_argument("--pivot", choices=PIVOTS + ("j34",), default="j24")
    p_exact.add_argument("--precision", type=int, default=50,
                         help="significant digits printed (output formatting only)")
    p_exact.add_argument("--n", type=int, default=None, help="chain length for 3nj")
    p_exact.add_argument("--diagnostics", action="store_true")
    p_exact.set_defaults(handler=cmd_exact)

    p_asym = sub.add_parser("asym", help="asymptotic formulas")
    p_asym.add_argument(
        "formula",
        choices=("pr6j", "edmonds", *_FORMULA_ALIASES, *CLOSED_15J_FORMS),
    )
    p_asym.add_argument("spins", nargs="+", type=int, help="twice-integer spins")
    p_asym.add_argument("--small-jk", default="j:1",
                        help="row:index of the small j/k spin (3nj), e.g. j:1")
    p_asym.add_argument("--small-l", default="",
                        help="comma-separated small l indices (3nj), e.g. 2,3")
    p_asym.add_argument("--n", type=int, default=None, help="chain length for 3nj")
    p_asym.add_argument("--edmonds-lengths", choices=("half", "sqrt"), default="half")
    p_asym.add_argument("--caustic-eps", type=float, default=1e-6)
    p_asym.add_argument("--strict-allowed", action="store_true")
    p_asym.add_argument("--diagnostics", action="store_true")
    p_asym.set_defaults(handler=cmd_asym)

    p_sweep = sub.add_parser("sweep", help="run a configured sweep")
    p_sweep.add_argument("--config", required=True, help="JSON config path")
    p_sweep.add_argument("--out", default=None, help="override output CSV path")
    p_sweep.set_defaults(handler=cmd_sweep)

    p_verify = sub.add_parser("verify", help="verification suites")
    p_verify.add_argument("suite", choices=("fig4", "identities"))
    p_verify.add_argument("--out", default=None, help="output directory for fig4 CSVs")
    p_verify.set_defaults(handler=cmd_verify)

    return parser


def cmd_exact(args) -> int:
    """Print the value at ``--precision`` digits, then its closed form."""
    sym = build_symbol(args.symbol, args.spins, args.n or len(args.spins) // 3)
    value, terms = exact_value(args.symbol, sym, args.pivot)
    with mpmath.workdps(args.precision):
        print(f"{mpmath.nstr(value.to_mpf(), args.precision)}    [{value}]")
        if args.diagnostics:
            for x, term in terms:
                print(f"  x={x}: {mpmath.nstr(term.to_mpf(), 12)}")
    return EXIT_OK


def cmd_asym(args) -> int:
    formula = _FORMULA_ALIASES.get(args.formula, args.formula)
    kind, call = ASYM_FORMULAS[formula]
    spins = args.spins
    if formula == "edmonds" and len(spins) == 6:
        a, b, c, m, n, f = spins   # m, n: projections of f -> {a b c; b+m a+n f}
        spins = [a, b, c, b + m, a + n, f]
    sym = build_symbol(kind, spins, args.n or len(spins) // 3)
    marking = _parse_marking(args, formula) if kind in CHAIN_KINDS else None
    value, diag = call(sym, marking, args.caustic_eps, args.edmonds_lengths)
    return _print_asym(args, value, diag)


def _parse_marking(args, formula: str) -> SmallSpinMarking:
    row, _, idx = args.small_jk.partition(":")
    small_jk = (row, int(idx or 1))
    if not args.small_l:
        return default_marking(formula, small_jk)
    return SmallSpinMarking(small_jk, frozenset(int(s) for s in args.small_l.split(",") if s.strip()))


def _print_asym(args, value: float, diag) -> int:
    """Print the value; ``diag`` is None for a formula without diagnostics
    (edmonds), which ignores ``--strict-allowed`` and ``--diagnostics``."""
    if diag is not None and args.strict_allowed and any(
        fl.startswith("near_caustic") or fl == "invalid_symbol" for fl in diag.flags
    ):
        print(f"{value:.17g}", file=sys.stderr)
        return EXIT_NOT_ALLOWED
    print(f"{value:.17g}")
    if diag is not None and args.diagnostics:
        dump = {
            "volumes": diag.volumes,
            "regge_actions": diag.regge_actions,
            "angles": diag.angles,
            "flags": diag.flags,
            "warnings": diag.warnings,
            "sign_configs": diag.sign_configs,
        }
        print(json.dumps(dump, indent=2, default=str))
    return EXIT_OK


def cmd_sweep(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = SweepConfig.from_json(fh.read())
    result = run_sweep(cfg)
    out = args.out or cfg.out
    if out:
        write_outputs(result, out)
        print(f"wrote {out}")
    else:
        sys.stdout.write(result.csv_text())
    print(json.dumps(result.summary, indent=2, default=str), file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.suite == "fig4":
        reports, _ = fig4_suite(outdir=args.out)
        ok = True
        for r in reports:
            for name, passed in r.checks.items():
                print(f"panel {r.name}: {name}: {'PASS' if passed else 'FAIL'}")
            ok = ok and r.passed
        return EXIT_OK if ok else EXIT_VERIFY_FAILED
    return _verify_identities(args)


def _verify_identities(args) -> int:
    """Fast algebraic spot checks of the exact engine."""
    import random

    from .identities import (
        orthogonality_defect,
        pentagon_max_residual,
        random_orthogonality_instance,
        random_valid_9j,
    )

    rng = random.Random(20240817)
    ok = True

    def report(name, passed):
        nonlocal ok
        ok = ok and passed
        print(f"{name}: {'PASS' if passed else 'FAIL'}")

    with mpmath.workdps(50):
        tol = mpmath.mpf(10) ** -30
        worst = pentagon_max_residual(rng, 25, tmax=16)
        report(f"pentagon identity (worst rel {mpmath.nstr(worst, 3)})", worst < tol)

        defects = 0
        for _ in range(25):
            inst = random_orthogonality_instance(rng, tmax=14)
            if inst is None:
                continue
            if orthogonality_defect(*inst):
                defects += 1
        report("6j orthogonality (exact)", defects == 0)

    sym = random_valid_9j(rng, tmax=20)
    vals = [exact_value("9j", sym, p)[0] for p in PIVOTS]
    report("9j pivot invariance (exact)", all(v == vals[0] for v in vals[1:]))

    rows = (tuple(HalfInt(x) for x in (1, 2, 2, 1, 1)),
            tuple(HalfInt(x) for x in (2, 1, 1, 2, 2)),
            tuple(HalfInt(x) for x in (1, 1, 1, 1, 1)))
    report("3nj(n=5) vs 15j (exact)", exact_value("3nj", Symbol3nj(*rows))[0] == wigner15j(*rows))
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
