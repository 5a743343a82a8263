"""Sweep harness: config validation, CSV schema, determinism, summary
recomputation, and the CLI surface."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wigner_asym
from wigner_asym import cli
from wigner_asym.errors import ConfigError
from wigner_asym.harness import (
    SweepConfig,
    reference_sweep_configs,
    run_sweep,
    slot_names,
    write_outputs,
)

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
        ({**FIG_A_CONFIG, "pivot": "zz"}, "pivot"),
        ({**FIG_A_CONFIG, "edmonds_lengths": "cube"}, "edmonds_lengths"),
        ({**FIG_A_CONFIG, "caustic_eps": "abc"}, "caustic_eps"),
        ({**FIG_A_CONFIG, "trim_fraction": 0.9}, "trim_fraction"),
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
            assert row.flag == tet.status(cfg.caustic_eps)
        except Exception:
            assert row.flag == "forbidden"


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
    assert set(cfgs) == {"a", "d"}
    assert cfgs["a"].sweep_slot == "j24"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

#: the directory holding the package under test, so the subprocess imports
#: the same code whether or not the package is installed
SRC = str(Path(wigner_asym.__file__).resolve().parent.parent)


def run_cli(*args):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "wigner_asym.cli", *args],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )
    return proc


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


def test_cli_strict_allowed_exit_3():
    proc = run_cli("asym", "pr6j", "16", "16", "24", "16", "16", "24",
                   "--strict-allowed")
    assert proc.returncode == 3


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
    assert "volumes" in payload and payload["volumes"]["tet1"] > 0


#: sha256 of every file ``verify fig4 --out`` writes (Python 3.11, numpy and
#: mpmath as pinned in pyproject; x86-64)
FIG4_SHA256 = {
    "fig_a.csv": "e810103f0d349a370059fbd1859868746a352b466c9c541c5896b588f5efe2d5",
    "fig_a.gnuplot": "b499eaa8e2e9447310c5cccdc6ec8be04810831bfc2e28f9c21b54ff83b015b4",
    "fig_b.csv": "9c709170866d76eb1df997b8a27ccf76e2bc9708e375980f1f7d0fc5e0b86c18",
    "fig_b.gnuplot": "71777fb15f435547d86e9f8f9cb0121aa27394ef5954def98c414f1b42e65687",
    "fig_c.csv": "35e23183ff5519b73ba4cfd0ca835ad83f38e6e24e0b1c9380422794a0ef8689",
    "fig_c.gnuplot": "0fcccad565b212527e4631bef1d6797d2b5c9fbd07bdf0f2f33b2411fbbcced7",
    "fig_d.csv": "751fc0311cadf92a0a3ad39d6437de3ae0efccb2e177f20e170215a5d22e7af0",
    "fig_d.gnuplot": "790c6b3cf34c266cc6657583f62ba2ac448db53d820b3eeb31654f7f992f6230",
}


def test_verify_fig4_outputs_are_pinned(tmp_path, capsys):
    assert cli.main(["verify", "fig4", "--out", str(tmp_path)]) == 0
    assert "FAIL" not in capsys.readouterr().out
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == FIG4_SHA256


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
