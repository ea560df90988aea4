"""CLI surface: parsing, output formats, exit codes, config precedence.

main(argv) is called in-process so stdout/stderr and exit codes are easy to
assert; one subprocess test checks the installed console script end to end.
"""
import csv
import io
import json
import os
import subprocess
import sys

import pytest

import alphaspec
from alphaspec import cli, from_text, k_nkm, lambda_knkm, spectral_radius
from alphaspec.cli import (
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_USAGE,
    EXIT_VIOLATION,
    main,
    parse_float_grid,
    parse_int_range,
)
from alphaspec.oracle import VerificationVerdict


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def read_csv(text):
    return list(csv.reader(io.StringIO(text)))


# ---------------------------------------------------------------------------
# grid parsing

def test_parse_float_grid_forms():
    assert parse_float_grid("0.5") == [0.5]
    assert parse_float_grid("0,0.3,0.7") == [0.0, 0.3, 0.7]
    grid = parse_float_grid("0..0.9/0.05")
    assert len(grid) == 19
    assert grid[0] == 0.0 and grid[-1] == 0.9
    assert parse_float_grid("0,0.1,...,0.4") == [0.0, 0.1, 0.2, 0.3, 0.4]


def test_parse_float_grid_errors():
    for bad in ("", "0..0.9", "0.9..0/0.1", "0..0.9/0", "0,...,0.9", "0,0.1,...,0.95"):
        with pytest.raises(ValueError):
            parse_float_grid(bad)


def test_parse_int_range_forms():
    assert parse_int_range("5") == [5]
    assert parse_int_range("4..7") == [4, 5, 6, 7]
    assert parse_int_range("3,5,9") == [3, 5, 9]
    with pytest.raises(ValueError):
        parse_int_range("7..4")


# ---------------------------------------------------------------------------
# radius

def test_radius_text_output(capsys):
    rc, out, _ = run_cli(capsys, "radius", "--family", "cycle", "--n", "5", "--alpha", "0.3")
    assert rc == EXIT_OK
    assert out.startswith("radius 1\n")
    assert "certificate [" in out
    assert out.count("check ") == 4
    assert "FAIL" not in out


def test_radius_json_schema(capsys):
    rc, out, _ = run_cli(
        capsys, "radius", "--family", "knkm", "--n", "6", "--k", "2", "--m", "1",
        "--alpha", "0.5", "--output", "json",
    )
    assert rc == EXIT_OK
    payload = json.loads(out)
    assert set(payload) == {"radius", "lo", "hi", "perron", "checks"}
    assert payload["lo"] <= payload["radius"] <= payload["hi"]
    assert len(payload["perron"]) == 6
    assert all(x > 0 for x in payload["perron"])
    names = [c["name"] for c in payload["checks"]]
    assert names == [
        "alpha_maxdeg_strict_lower",
        "at_most_n_minus_one",
        "at_least_min_outdeg",
        "at_most_max_outdeg",
    ]
    assert all(c["pass"] for c in payload["checks"])
    want = lambda_knkm(6, 2, 1, 0.5)
    assert abs(payload["radius"] - want) <= 1e-8


def test_radius_csv_output(capsys):
    rc, out, _ = run_cli(
        capsys, "radius", "--family", "cycle", "--n", "4", "--alpha", "0",
        "--output", "csv",
    )
    assert rc == EXIT_OK
    rows = read_csv(out)
    assert rows[0][:3] == ["radius", "lo", "hi"]
    assert rows[1][0] == "1"
    # decimal point, never a comma
    assert "," not in rows[1][0]


def test_radius_from_file(tmp_path, capsys):
    g = k_nkm(6, 2, 1)
    p = tmp_path / "g.dg"
    p.write_text(cli.to_text(g))
    rc, out, _ = run_cli(capsys, "radius", "--file", str(p), "--alpha", "0", "--output", "json")
    assert rc == EXIT_OK
    assert abs(json.loads(out)["radius"] - lambda_knkm(6, 2, 1, 0.0)) <= 1e-8


def test_radius_requires_one_input(capsys):
    rc, _, err = run_cli(capsys, "radius", "--alpha", "0")
    assert rc == EXIT_USAGE and "exactly one" in err
    rc, _, err = run_cli(
        capsys, "radius", "--file", "x.dg", "--family", "cycle", "--n", "4", "--alpha", "0"
    )
    assert rc == EXIT_USAGE


def test_radius_missing_file(capsys):
    rc, _, err = run_cli(capsys, "radius", "--file", "/nonexistent/g.dg", "--alpha", "0")
    assert rc == EXIT_USAGE and "cannot read" in err


def test_radius_not_strong_exit_code(capsys):
    rc, _, err = run_cli(capsys, "radius", "--family", "path", "--n", "4", "--alpha", "0")
    assert rc == EXIT_PRECONDITION
    assert "strongly connected" in err


def test_radius_iteration_cap_exit_code(capsys):
    rc, _, err = run_cli(
        capsys, "radius", "--family", "knkm", "--n", "6", "--k", "2", "--m", "1",
        "--alpha", "0", "--max-iters", "2",
    )
    assert rc == EXIT_PRECONDITION
    assert "certification not reached" in err


def test_radius_bad_alpha(capsys):
    rc, _, err = run_cli(capsys, "radius", "--family", "cycle", "--n", "4", "--alpha", "1.0")
    assert rc == EXIT_USAGE


def test_radius_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc, out, _ = run_cli(
        capsys, "radius", "--family", "cycle", "--n", "4", "--alpha", "0",
        "--output", "json", "--out", str(target),
    )
    assert rc == EXIT_OK
    assert out == ""
    assert json.loads(target.read_text())["radius"] == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# formula and family

def test_formula_json(capsys):
    rc, out, _ = run_cli(
        capsys, "formula", "--n", "6", "--k", "2", "--m", "1", "--alpha", "0",
        "--output", "json",
    )
    assert rc == EXIT_OK
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(lambda_knkm(6, 2, 1, 0.0), abs=1e-12)
    assert set(payload["quadratic"]) == {"b", "c"}


def test_formula_invalid_params(capsys):
    rc, _, err = run_cli(capsys, "formula", "--n", "5", "--k", "3", "--m", "2", "--alpha", "0")
    assert rc == EXIT_USAGE


def test_family_emits_text_format(capsys):
    rc, out, _ = run_cli(
        capsys, "family", "--family", "knkm", "--n", "6", "--k", "2", "--m", "1"
    )
    assert rc == EXIT_OK
    assert from_text(out) == k_nkm(6, 2, 1)


def test_family_alias_and_canonical_agree(capsys):
    rc1, out1, _ = run_cli(capsys, "family", "--family", "cng", "--n", "6", "--g", "3")
    rc2, out2, _ = run_cli(capsys, "family", "--family", "c_ng", "--n", "6", "--g", "3")
    assert rc1 == rc2 == EXIT_OK and out1 == out2


def test_family_primed_flag(capsys):
    _, base, _ = run_cli(capsys, "family", "--family", "bnd", "--n", "6", "--d", "3")
    _, primed, _ = run_cli(
        capsys, "family", "--family", "bnd", "--n", "6", "--d", "3", "--primed"
    )
    assert base != primed


def test_family_circulant_steps(capsys):
    rc, out, _ = run_cli(
        capsys, "family", "--family", "circulant", "--n", "5", "--steps", "1,2"
    )
    assert rc == EXIT_OK
    assert from_text(out).num_arcs == 10


def test_family_tournament_search_uses_alpha(capsys):
    rc, out, _ = run_cli(
        capsys, "family", "--family", "tournament", "--kind", "extremal_bruteforce",
        "--n", "4", "--alpha", "0.5",
    )
    assert rc == EXIT_OK
    assert from_text(out).num_arcs == 6


def test_family_search_rejects_alpha_outside_unit_interval(capsys):
    rc, out, err = run_cli(
        capsys, "family", "--family", "tournament", "--kind", "extremal_bruteforce",
        "--n", "4", "--alpha", "7",
    )
    assert rc == EXIT_USAGE and out == ""
    assert "alpha must lie in [0, 1)" in err


def test_family_missing_required_flag(capsys):
    rc, _, err = run_cli(capsys, "family", "--family", "knkm", "--n", "6", "--k", "2")
    assert rc == EXIT_USAGE and "requires --m" in err
    rc, _, err = run_cli(capsys, "family", "--family", "tournament", "--n", "4")
    assert rc == EXIT_USAGE and "requires --kind" in err


def test_family_unknown_name(capsys):
    rc, _, err = run_cli(capsys, "family", "--family", "mystery", "--n", "4")
    assert rc == EXIT_USAGE and "unknown family" in err


# ---------------------------------------------------------------------------
# sweeps

def test_sweep_alpha_grid(capsys):
    rc, out, _ = run_cli(
        capsys, "sweep", "alpha", "--family", "cycle", "--n", "6",
        "--alpha", "0..0.9/0.05",
    )
    assert rc == EXIT_OK
    rows = read_csv(out)
    assert rows[0] == ["alpha", "radius", "lo", "hi"]
    assert len(rows) == 1 + 19
    assert all(row[1] == "1" for row in rows[1:])
    assert rows[1][0] == "0" and rows[-1][0] == "0.9"


def test_sweep_alpha_from_file(tmp_path, capsys):
    p = tmp_path / "g.dg"
    p.write_text(cli.to_text(k_nkm(5, 1, 2)))
    rc, out, _ = run_cli(capsys, "sweep", "alpha", "--file", str(p), "--alpha", "0,0.5")
    assert rc == EXIT_OK
    rows = read_csv(out)
    assert len(rows) == 3
    want = spectral_radius(k_nkm(5, 1, 2), 0.5).radius
    assert float(rows[2][1]) == pytest.approx(want, abs=1e-9)


def test_sweep_formula_table(capsys):
    rc, out, _ = run_cli(capsys, "sweep", "formula", "--n", "4..5", "--alpha", "0,0.5")
    assert rc == EXIT_OK
    rows = read_csv(out)
    assert rows[0] == ["n", "k", "m", "alpha", "formula", "numeric", "abs_err"]
    # 3 legal (k, m) pairs at n=4 and 6 at n=5, two alphas each
    assert len(rows) == 1 + (3 + 6) * 2
    assert all(float(row[6]) <= 1e-8 for row in rows[1:])


def test_sweep_formula_requires_n(capsys):
    rc, _, err = run_cli(capsys, "sweep", "formula", "--alpha", "0")
    assert rc == EXIT_USAGE and "--n" in err


def test_sweep_bad_grid(capsys):
    rc, _, err = run_cli(
        capsys, "sweep", "alpha", "--family", "cycle", "--n", "4", "--alpha", "0..0.9"
    )
    assert rc == EXIT_USAGE


# ---------------------------------------------------------------------------
# verify / scan / explore

def test_verify_confirmed(capsys):
    rc, out, _ = run_cli(capsys, "verify", "T3.1", "--n", "3")
    assert rc == EXIT_OK
    assert "T3.1 at n=3" in out and "confirmed" in out


def test_verify_vacuous_second_maximum_at_n2(capsys):
    # K2 is the only strong digraph on two vertices: no second maximum exists
    rc, out, _ = run_cli(capsys, "verify", "R5.1", "--n", "2")
    assert rc == EXIT_OK
    assert out.startswith("R5.1 at n=2, alphas=[0.0, 0.5]: vacuous")


def test_verify_json(capsys):
    rc, out, _ = run_cli(capsys, "verify", "L3.1", "--n", "5", "--output", "json")
    assert rc == EXIT_OK
    payload = json.loads(out)
    assert payload["status"] == "confirmed"
    assert payload["alphas"] == [0.0, 0.5]
    assert payload["witness_files"] == []


def test_verify_unknown_id_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "T99", "--n", "3"])
    assert exc.value.code == EXIT_USAGE


def test_verify_violation_exit_and_witness(tmp_path, capsys, monkeypatch):
    # fabricate a violated verdict to exercise the reporting path
    fake = VerificationVerdict(
        theorem="T3.1",
        n=3,
        alphas=(0.0,),
        status="violated",
        details=("alpha=0.0: synthetic counterexample",),
        witnesses=(k_nkm(4, 2, 1),),
    )
    monkeypatch.setattr(cli.oracle, "verify_theorem", lambda *a, **k: fake)
    rc, out, _ = run_cli(
        capsys, "verify", "T3.1", "--n", "3", "--alpha", "0",
        "--witness-dir", str(tmp_path),
    )
    assert rc == EXIT_VIOLATION
    path = tmp_path / "violation_T3_1_0.dg"
    assert path.exists()
    assert from_text(path.read_text()) == k_nkm(4, 2, 1)
    assert "witness written" in out


def test_scan_text_output(capsys):
    rc, out, _ = run_cli(
        capsys, "scan", "--n", "3", "--alpha", "0", "--parameter", "girth",
        "--mode", "min",
    )
    assert rc == EXIT_OK
    assert "girth=2" in out and "girth=3" in out
    assert "representative:" in out


def test_scan_json_groups(capsys):
    rc, out, _ = run_cli(
        capsys, "scan", "--n", "3", "--alpha", "0.5", "--parameter", "clique",
        "--output", "json",
    )
    assert rc == EXIT_OK
    payload = json.loads(out)
    assert payload["mode"] == "max"
    values = [g["value"] for g in payload["groups"]]
    assert values == [1, 2, 3]
    top = payload["groups"][-1]
    assert top["attaining_count"] == 1
    assert from_text(top["representatives"][0]).num_arcs == 6


def test_scan_gate_without_long_runs(capsys):
    rc, _, err = run_cli(capsys, "scan", "--n", "6", "--alpha", "0", "--parameter", "girth")
    assert rc == EXIT_USAGE and "long runs" in err


def test_explore_csv(capsys):
    rc, out, _ = run_cli(
        capsys, "explore", "--n", "3", "--alpha", "0,0.5", "--output", "csv"
    )
    assert rc == EXIT_OK
    rows = read_csv(out)
    assert rows[0] == [
        "n", "d", "alpha", "g0_radius", "scan_max", "gap", "classes_match", "status",
    ]
    assert len(rows) == 1 + 2 * 2  # d in {1, 2}, two alphas
    assert {row[7] for row in rows[1:]} <= {"agrees", "differs", "empty"}


# ---------------------------------------------------------------------------
# config file

def test_config_file_applies(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\noutput = json\ntol = 1e-8\n")
    rc, out, _ = run_cli(
        capsys, "radius", "--family", "cycle", "--n", "4", "--alpha", "0",
        "--config", str(cfg),
    )
    assert rc == EXIT_OK
    json.loads(out)  # json because the file said so


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("output = json\n")
    rc, out, _ = run_cli(
        capsys, "radius", "--family", "cycle", "--n", "4", "--alpha", "0",
        "--config", str(cfg), "--output", "text",
    )
    assert rc == EXIT_OK
    assert out.startswith("radius ")


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("speed = 11\n")
    rc, _, err = run_cli(
        capsys, "radius", "--family", "cycle", "--n", "4", "--alpha", "0",
        "--config", str(cfg),
    )
    assert rc == EXIT_USAGE and "unknown key" in err


def test_config_malformed_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol 1e-8\n")
    rc, _, err = run_cli(
        capsys, "radius", "--family", "cycle", "--n", "4", "--alpha", "0",
        "--config", str(cfg),
    )
    assert rc == EXIT_USAGE and "key=value" in err


def test_config_validation_bounds(capsys):
    rc, _, err = run_cli(
        capsys, "radius", "--family", "cycle", "--n", "4", "--alpha", "0", "--tol", "-1"
    )
    assert rc == EXIT_USAGE and "tol" in err


# ---------------------------------------------------------------------------
# installed entry point

def test_console_script_smoke():
    # the child imports the package this suite imported, installed or not
    src = os.path.dirname(os.path.dirname(alphaspec.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from alphaspec.cli import main; sys.exit(main(sys.argv[1:]))",
         "radius", "--family", "cycle", "--n", "4", "--alpha", "0.5"],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("radius 1")
