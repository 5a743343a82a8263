"""Sweep harness: config validation, CSV schema, determinism, summary
recomputation, and the CLI surface."""

from __future__ import annotations

import csv
import hashlib
import io
import argparse
import json
import math
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import wigner_asym
from wigner_asym import cli
from wigner_asym.asymptotics import CLOSED_15J_FORMS
from wigner_asym.errors import ConfigError
from wigner_asym.harness import (
    ASYM_FORMULAS,
    SweepConfig,
    default_marking,
    reference_sweep_configs,
    run_sweep,
    slot_names,
    write_outputs,
)

from conftest import sample_chain_15j

FIG_A_CONFIG = {
    "kind": "9j",
    "spins_twice": {"j1": 860, "j2": 60, "j12": 860, "s": 2,
                    "j4": 120, "j34": 122, "j13": 862, "j5": 860},
    "sweep": {"slot": "j24", "start_twice": 60, "stop_twice": 180, "step_twice": 2},
    "formulas": ["exact", "asym9j"],
}


def small_sweep_config(**overrides):
    doc = json.loads(json.dumps(FIG_A_CONFIG))
    doc["sweep"] = {"slot": "j24", "start_twice": 100, "stop_twice": 140, "step_twice": 4}
    doc.update(overrides)
    return SweepConfig.from_json(json.dumps(doc))


def test_config_validation_errors():
    bad = {"kind": "7j"}
    with pytest.raises(ConfigError) as err:
        SweepConfig.from_json(json.dumps(bad))
    assert "kind" in err.value.problems

    doc = json.loads(json.dumps(FIG_A_CONFIG))
    doc["sweep"]["slot"] = "nope"
    with pytest.raises(ConfigError) as err:
        SweepConfig.from_json(json.dumps(doc))
    assert "sweep.slot" in err.value.problems

    doc = json.loads(json.dumps(FIG_A_CONFIG))
    del doc["spins_twice"]["j5"]
    with pytest.raises(ConfigError) as err:
        SweepConfig.from_json(json.dumps(doc))
    assert "spins_twice" in err.value.problems

    doc = json.loads(json.dumps(FIG_A_CONFIG))
    doc["formulas"] = ["exact", "pr6j"]
    with pytest.raises(ConfigError) as err:
        SweepConfig.from_json(json.dumps(doc))
    assert "formulas" in err.value.problems

    with pytest.raises(ConfigError):
        SweepConfig.from_json("{not json")

    # stop < start is rejected also when step_twice is left at its default
    backwards = {
        "kind": "6j",
        "spins_twice": {"a": 20, "b": 20, "c": 20, "d": 20, "e": 20},
        "sweep": {"slot": "f", "start_twice": 30, "stop_twice": 10},
    }
    with pytest.raises(ConfigError) as err:
        SweepConfig.from_json(json.dumps(backwards))
    assert "sweep.stop_twice" in err.value.problems

    # every field the sweep later reads is checked up front: each of these
    # documents used to load and then fail (or do nothing) mid-sweep
    fifteen = {
        "kind": "15j",
        "spins_twice": dict(zip(
            [f"{row}{i}" for row in "jkl" for i in range(1, 6)],
            (4, 68, 66, 60, 64, 66, 66, 68, 62, 66, 68, 2, 60, 62),
        )),
        "sweep": {"slot": "l5", "start_twice": 70, "stop_twice": 70},
        "formulas": ["exact", "15j-2"],
        "marking": {"small_jk": ["j", 1], "small_l": [2, 3]},
    }
    chain = {**fifteen, "kind": "3nj", "formulas": ["exact"]}
    bad_fields = [
        (fifteen, "marking"),
        ({**fifteen, "marking": {"small_jk": ["k", 1], "small_l": [2]}}, "marking"),
        ({**fifteen, "marking": {"small_jk": ["j"]}}, "marking"),
        ({**fifteen, "kind": "3nj", "formulas": ["asym3nj"],
          "marking": {"small_jk": ["j", 6]}}, "marking"),
        ({**chain, "marking": {"small_jk": ["j", 6]}}, "marking"),
        # no 9j or 6j formula reads a marking
        ({**FIG_A_CONFIG, "marking": {"small_jk": ["k", 40], "small_l": [9]}}, "marking"),
        ({"kind": "6j", "spins_twice": {"a": 20, "b": 20, "c": 20, "d": 20, "e": 20},
          "sweep": {"slot": "f", "start_twice": 20, "stop_twice": 20}, "formulas": ["pr6j"],
          "marking": {"small_jk": ["j", 1]}}, "marking"),
        ({**FIG_A_CONFIG, "pivot": "zz"}, "pivot"),
        # a JSON boolean is not a twice-integer
        ({**FIG_A_CONFIG, "sweep": {**FIG_A_CONFIG["sweep"], "start_twice": True}},
         "sweep.start_twice"),
        ({**FIG_A_CONFIG, "sweep": {**FIG_A_CONFIG["sweep"], "stop_twice": False}},
         "sweep.stop_twice"),
        ({**FIG_A_CONFIG, "sweep": {**FIG_A_CONFIG["sweep"], "step_twice": True}},
         "sweep.step_twice"),
        ({**FIG_A_CONFIG, "spins_twice": {**FIG_A_CONFIG["spins_twice"], "s": True}},
         "spins_twice.s"),
        ({**FIG_A_CONFIG, "edmonds_lengths": "cube"}, "edmonds_lengths"),
        ({**FIG_A_CONFIG, "caustic_eps": "abc"}, "caustic_eps"),
        ({**FIG_A_CONFIG, "caustic_eps": math.inf}, "caustic_eps"),
        ({**FIG_A_CONFIG, "trim_fraction": 0.9}, "trim_fraction"),
        ({**FIG_A_CONFIG, "trim_fracton": 0.2}, "trim_fracton"),
        ({**FIG_A_CONFIG, "out": 5}, "out"),
        ({**FIG_A_CONFIG, "formulas": 5}, "formulas"),
        ({**chain, "n": "4"}, "n"),
        ({"kind": "3nj", "n": 2, "spins_twice": {"j1": 2, "j2": 2, "k1": 2, "k2": 2, "l1": 2},
          "sweep": {"slot": "l2", "start_twice": 2, "stop_twice": 2}}, "n"),
    ]
    for doc, key in bad_fields:
        with pytest.raises(ConfigError) as err:
            SweepConfig.from_json(json.dumps(doc))
        assert key in err.value.problems, (key, err.value.problems)
    with pytest.raises(ConfigError):
        SweepConfig.from_json("[]")


def test_formula_registry_is_consistent(capsys):
    for name, (form, marking) in CLOSED_15J_FORMS.items():
        # a closed-form sweep needs no marking ...
        doc = {"kind": "15j", "spins_twice": {s: 60 for s in slot_names("15j")[:-1]},
               "sweep": {"slot": "l5", "start_twice": 60, "stop_twice": 60},
               "formulas": ["exact", name]}
        assert SweepConfig.from_json(json.dumps(doc)).marking is None
        # ... and runs with the default one
        assert default_marking(name) == marking
        sym = sample_chain_15j(random.Random(name), nsmall_l=len(marking.small_l))
        value, _ = form(sym, default_marking(name))
        assert math.isfinite(value)
    # a closed form is written for the small spin at j1 only
    spins = [4, 68, 66, 60, 64, 66, 66, 68, 62, 66, 68, 2, 60, 62, 70]
    assert cli.main(["asym", "15j-2", "--small-jk", "k:2", *map(str, spins)]) == 2
    assert "expects the small spin at j1" in capsys.readouterr().err
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    formula = next(a for a in sub.choices["asym"]._actions if a.dest == "formula")
    for choice in formula.choices:
        assert cli._FORMULA_ALIASES.get(choice, choice) in ASYM_FORMULAS, choice


def test_sweep_rows_and_csv_schema(tmp_path):
    cfg = small_sweep_config()
    result = run_sweep(cfg)
    text = result.csv_text()
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    assert header == ["sweep_twice", "exact", "asym", "abs_err", "vol_1", "flag"]
    rows = list(reader)
    assert len(rows) == len(range(100, 141, 4))
    for row in rows:
        assert row[-1] in ("allowed", "near_caustic", "forbidden")
        if row[1] and row[2]:
            assert abs(float(row[3]) - abs(float(row[1]) - float(row[2]))) <= 1e-22
    out = tmp_path / "sweep.csv"
    write_outputs(result, str(out))
    assert out.read_text() == text
    plot = tmp_path / "sweep.gnuplot"
    assert "with points" in plot.read_text() and "with lines" in plot.read_text()


def test_sweep_determinism():
    cfg = small_sweep_config()
    a = run_sweep(cfg).csv_text()
    b = run_sweep(cfg).csv_text()
    assert a == b


def test_summary_recomputable_from_csv():
    cfg = small_sweep_config()
    result = run_sweep(cfg)
    text = result.csv_text()
    reader = csv.DictReader(io.StringIO(text))
    interior = []
    swept = []
    for row in reader:
        swept.append(int(row["sweep_twice"]))
        if row["exact"] and row["asym"]:
            interior.append(row)
    lo, hi = min(swept), max(swept)
    trim = cfg.trim_fraction * (hi - lo)
    inner = [r for r in interior if lo + trim <= int(r["sweep_twice"]) <= hi - trim]
    max_err = max(float(r["abs_err"]) for r in inner)
    assert max_err == result.summary["max_abs_err_interior"]
    rms = math.sqrt(sum(float(r["abs_err"]) ** 2 for r in inner) / len(inner))
    assert rms == result.summary["rms_abs_err_interior"]


def test_single_point_sweep():
    cfg = small_sweep_config()
    cfg = SweepConfig.from_json(json.dumps({
        **FIG_A_CONFIG,
        "sweep": {"slot": "j24", "start_twice": 120, "stop_twice": 120, "step_twice": 2},
    }))
    result = run_sweep(cfg)
    assert len(result.rows) == 1
    assert result.rows[0].exact and result.rows[0].asym


def test_flags_match_cayley_menger_sign():
    from wigner_asym.exact import Symbol9j
    from wigner_asym.geometry import Tetrahedron

    cfg = SweepConfig.from_json(json.dumps({
        **FIG_A_CONFIG,
        "sweep": {"slot": "j24", "start_twice": 60, "stop_twice": 100, "step_twice": 2},
    }))
    result = run_sweep(cfg)
    spins = dict(cfg.spins_twice)
    for row in result.rows:
        spins["j24"] = row.sweep_twice
        sym = Symbol9j.from_twice(*(spins[s] for s in
                                    ("j1", "j2", "j12", "s", "j4", "j34", "j13", "j24", "j5")))
        try:
            tet = Tetrahedron.from_spins((sym.j1, sym.j2, sym.j12, sym.j34, sym.j5, sym.j24))
            assert row.flag == tet.status()
        except Exception:
            assert row.flag == "forbidden"


def test_sweep_checks_each_9j_once(monkeypatch):
    """A 9j sweep with exact and asymptotic values checks the triads of
    each symbol it builds once, though the harness, ``asym_9j_one_small``
    and ``wigner9j`` all ask."""
    from wigner_asym.exact import Symbol9j

    built, checked = [], []
    init, valid = Symbol9j.__init__, Symbol9j.__dict__["_valid"]
    check = valid.func
    monkeypatch.setattr(Symbol9j, "__init__",
                        lambda self, *a: built.append(self) or init(self, *a))
    monkeypatch.setattr(valid, "func", lambda self: checked.append(self) or check(self))
    result = run_sweep(small_sweep_config())
    assert all(row.exact and row.asym for row in result.rows)
    assert len(result.rows) == len(built) == len(checked) == len({id(s) for s in checked})


def test_sweep_row_reuses_formula_tetrahedron(monkeypatch):
    """A row whose formula built its tetrahedra evaluates each Cayley-Menger
    determinant once: the volume column reuses them.  One tetrahedron per
    6j/9j row, three for a 15j with one small spin, two with two."""
    from wigner_asym import geometry

    calls = []
    det = geometry.cayley_menger_determinant
    monkeypatch.setattr(geometry, "cayley_menger_determinant",
                        lambda den, squares: calls.append(1) or det(den, squares))
    six = SweepConfig.from_json(json.dumps({
        "kind": "6j",
        "spins_twice": {"a": 60, "b": 60, "c": 60, "d": 60, "e": 60},
        "sweep": {"slot": "f", "start_twice": 40, "stop_twice": 80, "step_twice": 4},
        "formulas": ["pr6j"],
    }))
    chain_tets = {"15j-1": 3, "15j-2": 2}
    cases = [(small_sweep_config(), 1), (six, 1)] + [
        (_one_point_config(kind, twice, formula, marking), chain_tets[formula])
        for _, _, formula, kind, twice, marking in CLI_SWEEP_CASES if formula in chain_tets
    ]
    for cfg, tets_per_row in cases:
        calls.clear()
        result = run_sweep(cfg)
        assert all(r.flag == "allowed" and r.asym for r in result.rows)
        assert len(calls) == tets_per_row * len(result.rows), cfg.kind


def test_all_forbidden_sweep_reports_empty_interior():
    cfg = SweepConfig.from_json(json.dumps({
        "kind": "6j",
        "spins_twice": {"a": 16, "b": 16, "c": 24, "d": 16, "e": 16},
        "sweep": {"slot": "f", "start_twice": 24, "stop_twice": 28, "step_twice": 2},
        "formulas": ["exact", "pr6j"],
    }))
    result = run_sweep(cfg)
    assert result.rows
    assert all(r.flag == "forbidden" for r in result.rows)
    assert result.summary["n_interior"] == 0


def test_6j_sweep_skips_clebsch_gordan_forbidden_points():
    cfg = SweepConfig.from_json(json.dumps({
        "kind": "6j",
        "spins_twice": {"a": 20, "b": 20, "c": 20, "d": 20, "e": 20},
        "sweep": {"slot": "f", "start_twice": 0, "stop_twice": 8, "step_twice": 1},
        "formulas": ["exact", "pr6j"],
    }))
    result = run_sweep(cfg)
    # f = 1/2, 3/2, ... break the triads (a, e, f) and (d, b, f)
    assert [r.sweep_twice for r in result.rows] == [0, 2, 4, 6, 8]


def test_reference_configs_exposed():
    cfgs = reference_sweep_configs()
    assert set(cfgs) == {"a", "c", "d"}
    assert cfgs["a"].sweep_slot == "j24"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

#: the directory holding the package under test, so the subprocess imports
#: the same code whether or not the package is installed
SRC = str(Path(wigner_asym.__file__).resolve().parent.parent)


def run_python(*args):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )
    return proc


def run_cli(*args):
    return run_python("-m", "wigner_asym.cli", *args)


def test_cli_exact_6j_prints_both_forms():
    proc = run_cli("exact", "6j", "2", "2", "2", "2", "2", "2")
    assert proc.returncode == 0
    assert "[1/6]" in proc.stdout and proc.stdout.startswith("0.1666")


def test_cli_triad_violation_is_value_zero_not_error():
    proc = run_cli("exact", "6j", "2", "2", "6", "2", "2", "2")
    assert proc.returncode == 0
    assert proc.stdout.startswith("0.0")


def test_cli_malformed_spin_count_exits_2():
    proc = run_cli("exact", "6j", "2", "2", "2", "2", "2")
    assert proc.returncode == 2
    # a 3nj reads n from its spin count, which must be a multiple of 3
    for command in ("exact", "asym"):
        assert cli.main([command, "3nj", *["6"] * 13]) == 2


def test_cli_asym_huge_edges_exit_2():
    # spins of 10^60: the determinant and the caustic guard would overflow a float
    proc = run_cli("asym", "pr6j", *[str(2 * 10 ** 60)] * 6)
    assert proc.returncode == 2
    assert proc.stdout == "" and proc.stderr.startswith("error:")


def test_cli_exact_huge_spins_exit_2():
    # spins of 10^60: the factorial ledger would sieve primes up to 3*10^60
    proc = run_cli("exact", "6j", *[str(2 * 10 ** 60)] * 5, "2")
    assert proc.returncode == 2
    assert proc.stdout == "" and proc.stderr.startswith("error:")


@pytest.mark.parametrize("eps", ["-1", "nan", "inf"])
def test_cli_asym_rejects_bad_caustic_eps(capsys, eps):
    # the caustic guard and the Edmonds edge lengths are fixed: the sign of
    # the Cayley-Menger determinant decides "forbidden", so neither option
    # exists, and argparse rejects both as unrecognized
    for option in (["--caustic-eps", eps], ["--edmonds-lengths", "sqrt"]):
        with pytest.raises(SystemExit) as err:
            cli.main(["asym", "pr6j", "8", "8", "12", "8", "8", "12", *option])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments" in captured.err


@pytest.mark.parametrize("precision", ["0", "-3"])
def test_cli_exact_rejects_precision_below_one(precision):
    proc = run_cli("exact", "6j", "2", "2", "2", "2", "2", "2", "--precision", precision)
    assert proc.returncode == 2
    assert proc.stdout == "" and "--precision" in proc.stderr


def test_cli_exact_last_digit_is_correctly_rounded(capsys):
    # 2/3003*sqrt(595) = 0.01624550238781281114356725056894285122090116251065649...
    assert cli.main(["exact", "6j", "6", "10", "12", "10", "6", "12"]) == 0
    assert capsys.readouterr().out == (
        "0.016245502387812811143567250568942851220901162510656    [2/3003*sqrt(595)]\n")


#: stdout of the ``exact`` examples in the README
README_EXACT = {
    "6j 2 2 2 2 2 2": "0.16666666666666666666666666666666666666666666666667    [1/6]\n",
    "9j 860 60 860 2 120 122 862 120 860 --pivot j2":
        "0.00000058356187924896623390162599222385821224382121410998    "
        "[31436881667413326522394267433456755632507960618189794/"
        "61788518373623070321669236910993471348620614347471219237662818928067436463424903988"
        "402311060236745*sqrt(13155594254202550484890091511095064728966192676505107737559155"
        "10101369675381478)]\n",
    "15j 2 80 80 80 80  90 84 84 84 84  80 2 4 2 84":
        "-0.00000000034144831297142229799924289719755888203430952154974    "
        "[-5917082614/1436666065042831851375*sqrt(6873)]\n",
    "3nj 6 6 6 6  8 10 10 8  2 4 6 2":
        "0.00031336213060803097591788858056223419160308848692265    [1/10584*sqrt(11)]\n",
}


@pytest.mark.parametrize("args", list(README_EXACT))
def test_cli_exact_readme_outputs(capsys, args):
    assert cli.main(["exact", *args.split()]) == 0
    assert capsys.readouterr().out == README_EXACT[args]


def test_cli_exact_9j_diagnostics_evaluates_once(monkeypatch, capsys):
    """The value and the term trace come from one 9j evaluation; the
    output is pinned by its sha256."""
    from wigner_asym import harness

    calls = []
    nine = cli.wigner9j
    for module in (cli, harness):
        monkeypatch.setattr(module, "wigner9j", lambda *a, **k: calls.append(1) or nine(*a, **k))
    args = "9j 860 60 860 2 120 122 862 120 860 --pivot j2"
    assert cli.main(["exact", *args.split(), "--diagnostics"]) == 0
    out = capsys.readouterr().out
    assert len(calls) == 1
    assert out.startswith(README_EXACT[args]) and "  x=" in out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a9eb384bc0d4d5ccaae1f587cd1ab016fa21592e3528b0938b1a35e41d7609b3")


@pytest.mark.parametrize("command", ["exact", "asym"])
def test_cli_has_no_chain_length_option(command):
    """A 3nj takes n from its 3n spins, so there is no --n option."""
    spins = "6 6 6 6 8 10 10 8 2 4 6 2".split()
    with pytest.raises(SystemExit) as err:
        cli.main([command, "3nj", *spins, "--n", "4"])
    assert err.value.code == 2


@pytest.mark.parametrize("args", [
    ["9j", "860", "60", "860", "2", "120", "122", "862", "120", "860",
     "--small-jk", "k:40", "--small-l", "9"],
    ["9j", "860", "60", "860", "2", "120", "122", "862", "120", "860", "--small-l", ""],
    ["pr6j", "60", "60", "60", "60", "60", "60", "--small-jk", "j:1"],
    ["edmonds", "60", "60", "60", "0", "0", "2", "--small-l", "1"],
])
def test_cli_marking_for_a_kind_without_one_exits_2(capsys, args):
    assert cli.main(["asym", *args]) == 2
    assert "reads no marking" in capsys.readouterr().err


def test_cli_strict_allowed_exit_3():
    proc = run_cli("asym", "pr6j", "16", "16", "24", "16", "16", "24",
                   "--strict-allowed")
    assert proc.returncode == 3


def test_cli_not_allowed_exits_3_without_strict(capsys):
    # {8 8 12; 8 8 12} is forbidden: no value, not even NaN, and exit 3
    assert cli.main(["asym", "pr6j", "16", "16", "24", "16", "16", "24"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("not classically allowed:")


def test_cli_strict_allowed_governs_near_caustic(capsys):
    # a needle {1/2 1 3/2; 197/2 99 199/2}: allowed, inside the caustic guard
    spins = ["1", "2", "3", "197", "198", "199"]
    assert cli.main(["asym", "pr6j", *spins]) == 0
    value = float(capsys.readouterr().out)
    assert math.isfinite(value)
    assert cli.main(["asym", "pr6j", *spins, "--strict-allowed"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and float(captured.err) == value


def test_cli_sweep_and_verify(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    doc = {**FIG_A_CONFIG,
           "sweep": {"slot": "j24", "start_twice": 110, "stop_twice": 130, "step_twice": 4}}
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "sweep.csv"
    proc = run_cli("sweep", "--config", str(cfg_path), "--out", str(out))
    assert proc.returncode == 0
    assert out.exists()
    header = out.read_text().splitlines()[0]
    assert header == "sweep_twice,exact,asym,abs_err,vol_1,flag"

    proc = run_cli("verify", "identities")
    assert proc.returncode == 0
    assert "PASS" in proc.stdout and "FAIL" not in proc.stdout


def test_cli_asym_diagnostics_dump():
    proc = run_cli("asym", "9j", "860", "60", "860", "2", "120", "122",
                   "862", "120", "860", "--diagnostics")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    payload = json.loads("\n".join(lines[1:]))
    assert list(payload) == ["volumes", "regge_actions", "angles", "flags",
                             "warnings", "sign_configs"]
    assert payload["volumes"]["tet_2"] > 0


#: sha256 of every file ``verify fig4 --out`` writes (Python 3.11, x86-64;
#: the Cayley-Menger determinants are exact integer sums rounded once, so
#: no linear-algebra library enters these bytes)
FIG4_SHA256 = {
    "fig_a.csv": "2e5ab2b565c5c8e1685787fe0f0d00c39b1d92b89f3f886a93e1656cf1ed3105",
    "fig_a.gnuplot": "b499eaa8e2e9447310c5cccdc6ec8be04810831bfc2e28f9c21b54ff83b015b4",
    "fig_b.csv": "52b4c658580679e4b859a874f04a9f0b3ff75edb3876a2ac5329879a2a7cbd97",
    "fig_b.gnuplot": "71777fb15f435547d86e9f8f9cb0121aa27394ef5954def98c414f1b42e65687",
    "fig_c.csv": "3dee5feff1c2f248d9bffe8e09480bbfa5027b16282aa399d555fe09e64fa3ee",
    "fig_c.gnuplot": "0fcccad565b212527e4631bef1d6797d2b5c9fbd07bdf0f2f33b2411fbbcced7",
    "fig_d.csv": "2298109d1739d0421c42eff38408668fe886892703a8144e693e8d44d52dc6ba",
    "fig_d.gnuplot": "790c6b3cf34c266cc6657583f62ba2ac448db53d820b3eeb31654f7f992f6230",
}


#: stdout of ``verify fig4``: every check of every panel, in order
FIG4_STDOUT = (
    "panel a: interior_correlation>=0.99: PASS\n"
    "panel a: interior_err<=0.1*max_exact: PASS\n"
    "panel b: err_column_present: PASS\n"
    "panel c: interior_correlation>=0.95: PASS\n"
    "panel c: error_grows_toward_edges: PASS\n"
    "panel d: interior_correlation>=0.95: PASS\n"
    "panel d: error_grows_toward_edges: PASS\n"
)


def test_verify_fig4_outputs_are_pinned(tmp_path, capsys):
    assert cli.main(["verify", "fig4", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out == FIG4_STDOUT
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == FIG4_SHA256


def test_runs_without_mpmath(tmp_path):
    """The package, ``exact``, ``verify identities`` and ``verify fig4`` run
    with mpmath and numpy unimportable, and fig4 writes the pinned bytes; a
    plain import of the package and its CLI loads neither."""
    script = (
        "import sys\n"
        "sys.modules['mpmath'] = None\n"
        "sys.modules['numpy'] = None\n"
        "import wigner_asym, wigner_asym.cli\n"
        "argvs = (['exact', '9j', '860', '60', '860', '2', '120', '122', '862', '120', '860',"
        " '--diagnostics'], ['verify', 'identities'], ['verify', 'fig4', '--out', sys.argv[1]])\n"
        "sys.exit(max(wigner_asym.cli.main(argv) for argv in argvs))\n"
    )
    proc = run_python("-c", script, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "x=" in proc.stdout and "PASS" in proc.stdout and "FAIL" not in proc.stdout
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == FIG4_SHA256
    proc = run_python("-c", "import sys, wigner_asym, wigner_asym.cli\n"
                            "print(sorted({'mpmath', 'numpy'} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_loads_no_process_pool_or_pickle():
    """A plain import of the package and its CLI loads no process-pool,
    subprocess or pickle module: the sweep's fork path needs only ``os``,
    ``marshal``, ``sys`` and ``threading``, which the interpreter has
    loaded already, so no import time is added."""
    proc = run_python("-c", "import sys, wigner_asym, wigner_asym.cli\n"
                            "print(sorted({'multiprocessing', 'concurrent.futures', "
                            "'subprocess', 'pickle'} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _one_point_config(kind, twice, formula, marking=None):
    slots = slot_names(kind, len(twice) // 3)
    doc = {
        "kind": kind,
        "spins_twice": dict(zip(slots[:-1], twice[:-1])),
        "sweep": {"slot": slots[-1], "start_twice": twice[-1], "stop_twice": twice[-1]},
        "formulas": [formula],
    }
    if kind == "3nj":
        doc["n"] = len(twice) // 3
    if marking:
        doc["marking"] = marking
    return SweepConfig.from_json(json.dumps(doc))


# (CLI formula, CLI arguments, harness formula, symbol kind, twice spins in
# slot order, sweep marking): edmonds takes a b c m n f on the CLI and
# {a b c; b+m a+n f} in a sweep; the 15j forms run with their default marking
CLI_SWEEP_CASES = [
    ("pr6j", [100] * 6, "pr6j", "6j", [100] * 6, None),
    ("edmonds", [240, 456, 362, 1, -1, 3], "edmonds", "6j",
     [240, 456, 362, 457, 239, 3], None),
    ("9j", [860, 60, 860, 2, 120, 122, 862, 120, 860], "asym9j", "9j",
     [860, 60, 860, 2, 120, 122, 862, 120, 860], None),
    ("3nj", ["--small-jk", "k:4", "--small-l", "2",
             79, 81, 79, 82, 72, 76, 78, 76, 1, 77, 80, 2, 75, 76, 72], "asym3nj", "3nj",
     [79, 81, 79, 82, 72, 76, 78, 76, 1, 77, 80, 2, 75, 76, 72],
     {"small_jk": ["k", 4], "small_l": [2]}),
    ("15j-1", [4, 128, 124, 130, 128, 128, 128, 128, 136, 136, 130, 130, 126, 130, 140],
     "15j-1", "15j", [4, 128, 124, 130, 128, 128, 128, 128, 136, 136, 130, 130, 126, 130, 140],
     None),
    ("15j-2", [4, 68, 66, 60, 64, 66, 66, 68, 62, 66, 68, 2, 60, 62, 70],
     "15j-2", "15j", [4, 68, 66, 60, 64, 66, 66, 68, 62, 66, 68, 2, 60, 62, 70], None),
    ("15j-3", [3, 95, 99, 101, 91, 88, 88, 84, 84, 90, 94, 4, 4, 88, 89],
     "15j-3", "15j", [3, 95, 99, 101, 91, 88, 88, 84, 84, 90, 94, 4, 4, 88, 89], None),
    ("15j-4", [3, 145, 147, 145, 145, 142, 140, 144, 142, 142, 144, 4, 2, 4, 145],
     "15j-4", "15j", [3, 145, 147, 145, 145, 142, 140, 144, 142, 142, 144, 4, 2, 4, 145],
     None),
]


@pytest.mark.parametrize("cli_name, cli_args, formula, kind, twice, marking", CLI_SWEEP_CASES,
                         ids=[c[0] for c in CLI_SWEEP_CASES])
def test_cli_asym_matches_one_point_sweep(capsys, cli_name, cli_args, formula, kind, twice,
                                          marking):
    assert cli.main(["asym", cli_name, *map(str, cli_args)]) == 0
    printed = capsys.readouterr().out.splitlines()[0]
    rows = run_sweep(_one_point_config(kind, twice, formula, marking)).rows
    assert len(rows) == 1 and rows[0].asym
    assert printed == rows[0].asym


# ----------------------------------------------------------------------
# Sweep points spread over W processes
# ----------------------------------------------------------------------

#: a 15j, as a 3nj chain, swept over l5 with exact and asym3nj values
SHARE_15J = {
    "kind": "3nj", "n": 5,
    "spins_twice": dict(zip(slot_names("3nj", 5),
                            [79, 81, 79, 82, 72, 76, 78, 76, 1, 77, 80, 2, 75, 76])),
    "sweep": {"slot": "l5", "start_twice": 56, "stop_twice": 100, "step_twice": 1},
    "formulas": ["exact", "asym3nj"],
    "marking": {"small_jk": ["k", 4], "small_l": [2]},
}

#: a 6j sweep with classically forbidden rows (noted) and, at odd f and
#: f > 32, Clebsch-Gordan-skipped points: 17 rows, f = 0, 2, ..., 32
SHARE_6J = {
    "kind": "6j",
    "spins_twice": {"a": 16, "b": 16, "c": 24, "d": 16, "e": 16},
    "sweep": {"slot": "f", "start_twice": 0, "stop_twice": 40, "step_twice": 1},
    "formulas": ["exact", "pr6j"],
}


def force_shares(monkeypatch, w):
    """Make the next sweep call spread its points, costly or not, over
    ``w`` processes."""
    from wigner_asym import harness

    monkeypatch.setattr(harness, "_usable_cpus", lambda: w)
    monkeypatch.setattr(harness, "_MIN_SHARE", 1)
    monkeypatch.setattr(harness, "_costly", lambda cfg: True)


def count_parent_points(monkeypatch) -> list:
    """Record the sweep values of the points this process evaluates; a
    forked child's records stay in the child."""
    from wigner_asym import harness

    seen, evaluate, parent = [], harness._evaluate_point, os.getpid()
    monkeypatch.setattr(harness, "_evaluate_point", lambda *point: (
        os.getpid() == parent and seen.append(point[2])) or evaluate(*point))
    return seen


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def sweep_outputs(result):
    return result.rows, repr(result.summary), result.csv_text()


@pytest.mark.parametrize("doc", [SHARE_15J, SHARE_6J], ids=["15j-asym3nj", "6j-exact-pr6j"])
def test_sweep_outputs_do_not_depend_on_share_count(monkeypatch, doc):
    """W = 1, 2 and 3 give equal rows, summaries and CSV text, and with
    W > 1 this process evaluates only its own share."""
    cfg = SweepConfig.from_json(json.dumps(doc))
    seen = count_parent_points(monkeypatch)
    outputs = []
    for w in (1, 2, 3):
        force_shares(monkeypatch, w)
        seen.clear()
        result = run_sweep(cfg)
        assert seen == [r.sweep_twice for r in result.rows[::w]], w
        assert_no_children()
        outputs.append(sweep_outputs(result))
    rows = outputs[0][0]
    if doc is SHARE_6J:
        assert any(r.flag == "forbidden" and r.note for r in rows)
        assert [r.sweep_twice for r in rows] == list(range(0, 33, 2))
    assert len(rows) >= 9 and outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_fig4_outputs_do_not_depend_on_share_count(monkeypatch, tmp_path, capsys):
    """``verify fig4`` prints and writes the pinned bytes, and
    ``fig4_suite`` returns equal rows and summaries, for W = 1, 2 and 3;
    one call evaluates its share of all three sweeps in this process."""
    from wigner_asym.harness import fig4_suite

    seen = count_parent_points(monkeypatch)
    outputs = []
    for w in (1, 2, 3):
        force_shares(monkeypatch, w)
        seen.clear()
        out = tmp_path / str(w)
        assert cli.main(["verify", "fig4", "--out", str(out)]) == 0
        assert capsys.readouterr().out == FIG4_STDOUT
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert digests == FIG4_SHA256
        _, results = fig4_suite()
        n_points = sum(len(r.rows) for r in results.values())
        assert n_points == 155 and len(seen) == 2 * len(range(0, n_points, w))
        outputs.append([sweep_outputs(r) for r in results.values()])
        assert_no_children()
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_short_sweep_runs_in_process(monkeypatch):
    """An 11-point sweep forks no child, so tests that count calls through
    monkeypatched functions see every call; the 155 points of fig4 are
    spread over at most 2 processes."""
    from wigner_asym import harness

    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    assert len(run_sweep(small_sweep_config()).rows) == 11 and not forks
    assert harness._share_count(11) == 1
    if sys.platform == "linux" and threading.active_count() == 1:
        assert harness._share_count(155) == min(harness._usable_cpus(), 2)
        assert 1 <= harness._usable_cpus() <= len(os.sched_getaffinity(0))


@pytest.mark.parametrize("files, cap", [
    ({"cpu.max": "150000 100000\n"}, 1),
    ({"cpu.max": "max 100000\n"}, None),
    ({"cpu/cpu.cfs_quota_us": "200000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 2),
    ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, None),
    ({}, None),
], ids=["v2-1.5-cpus", "v2-no-quota", "v1-2-cpus", "v1-no-quota", "no-cgroup-files"])
def test_usable_cpus_are_capped_by_a_cgroup_quota(monkeypatch, files, cap):
    """A cgroup CPU quota caps the usable CPUs at its whole CPUs, at least
    one, so a call does not fork for a CPU it cannot run on."""
    import io

    from wigner_asym import harness

    def fake_open(path, *args, **kwargs):
        name = path.removeprefix("/sys/fs/cgroup/")
        if name not in files:
            raise FileNotFoundError(path)
        return io.StringIO(files[name])

    monkeypatch.setattr(harness, "open", fake_open, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    assert harness._usable_cpus() == (8 if cap is None else cap)


def test_only_exact_chain_points_count_toward_a_fork(monkeypatch):
    """W counts only the points that need an exact 9j, 15j or 3nj value,
    the rows that pay for a fork: 200 pr6j points, 61 asym9j-only points
    and 61 exact 9j points (322 in all) run in the calling process."""
    from dataclasses import replace

    from wigner_asym import harness

    counts, share_count = [], harness._share_count
    monkeypatch.setattr(harness, "_share_count", lambda n: counts.append(n) or share_count(n))
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    six = SweepConfig.from_json(json.dumps({
        "kind": "6j", "spins_twice": {"a": 200, "b": 200, "c": 200, "d": 200, "e": 200},
        "sweep": {"slot": "f", "start_twice": 2, "stop_twice": 400}, "formulas": ["pr6j"],
    }))
    nine = harness.reference_sweep_configs()["a"]
    results = harness._run_sweeps([six, replace(nine, formulas=("asym9j",)), nine])
    assert [len(r.rows) for r in results] == [200, 61, 61]
    assert counts == [61] and not forks


def test_interrupted_child_never_leaves_the_call(monkeypatch, tmp_path):
    """A child interrupted as soon as it is forked (a Ctrl-C sent to the
    process group) leaves through ``os._exit``: it neither returns nor
    raises into the caller's code, and the call returns the W = 1 rows."""
    cfg = SweepConfig.from_json(json.dumps(SHARE_6J))
    serial = sweep_outputs(run_sweep(cfg))
    parent, fork = os.getpid(), os.fork

    def interrupted_fork():
        pid = fork()
        if pid == 0:
            raise KeyboardInterrupt
        return pid

    monkeypatch.setattr(os, "fork", interrupted_fork)
    force_shares(monkeypatch, 3)
    try:
        result = run_sweep(cfg)
    finally:
        if os.getpid() != parent:              # a child that escaped the call
            (tmp_path / f"escaped-{os.getpid()}").touch()
            os._exit(1)
    assert sweep_outputs(result) == serial
    assert list(tmp_path.iterdir()) == []
    assert_no_children()


@pytest.mark.parametrize("failure", ["raise", "truncate", "kill"])
def test_failed_child_share_gives_the_serial_result(monkeypatch, failure):
    """A child that raises, writes a payload cut short or is killed is
    reaped, and the call returns the W = 1 rows, evaluated in this
    process."""
    import marshal
    import signal
    from dataclasses import astuple

    from wigner_asym import harness

    cfg = SweepConfig.from_json(json.dumps(SHARE_6J))
    serial = sweep_outputs(run_sweep(cfg))
    parent, write = os.getpid(), harness._write_rows

    def write_rows(fd, rows):
        if os.getpid() == parent or rows[0].sweep_twice != 2:   # only share 1 of 3 fails
            write(fd, rows)
        elif failure == "raise":
            raise RuntimeError("injected")
        elif failure == "truncate":
            os.write(fd, marshal.dumps([astuple(row) for row in rows])[:100])
        else:
            os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(harness, "_write_rows", write_rows)
    force_shares(monkeypatch, 3)
    seen = count_parent_points(monkeypatch)
    assert sweep_outputs(run_sweep(cfg)) == serial
    assert len(seen) == len(range(0, 17, 3)) + 17
    assert_no_children()


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt, SystemExit])
def test_parent_share_failure_kills_and_reaps_children(monkeypatch, error):
    """An error in this process's own share kills and reaps children that
    are still running; the call raises what the W = 1 call raises."""
    import time

    from wigner_asym import harness

    cfg = SweepConfig.from_json(json.dumps(SHARE_6J))
    parent, evaluate = os.getpid(), harness._evaluate_point

    def failing(*point):
        if os.getpid() != parent and point[2] in (2, 4):   # first rows of shares 1, 2
            time.sleep(20)                   # children that would outlive the call
        elif os.getpid() == parent and point[2] == 6:      # row 3: share 0 of 3
            raise error("injected at f = 3")
        return evaluate(*point)

    monkeypatch.setattr(harness, "_evaluate_point", failing)
    raised = []
    for w in (1, 3):
        force_shares(monkeypatch, w)
        start = time.monotonic()
        with pytest.raises(error) as info:
            run_sweep(cfg)
        raised.append((type(info.value), info.value.args))
        assert time.monotonic() - start < 10
        assert_no_children()
    assert raised[0] == raised[1] == (error, ("injected at f = 3",))
