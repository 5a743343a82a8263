"""Sweep harness: config validation, CSV schema, determinism, summary
recomputation, and the CLI surface."""

from __future__ import annotations

import csv
import io
import json
import math
import subprocess
import sys

import pytest

from wigner_asym.errors import ConfigError
from wigner_asym.harness import (
    SweepConfig,
    reference_sweep_configs,
    run_sweep,
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

def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "wigner_asym.cli", *args],
        capture_output=True,
        text=True,
        timeout=300,
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
