"""CLI surface: parsing, output formats, exit codes, the settings flags.

main(argv) is called in-process so stdout/stderr and exit codes are easy to
assert; one subprocess test checks the installed console script end to end.
"""
import argparse
import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import alphaspec
from alphaspec import cli, cycle, from_text, k_nkm, lambda_knkm, spectral_radius
from alphaspec.cli import (
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_USAGE,
    EXIT_VIOLATION,
    OUTPUT_FORMATS,
    VERIFY_OUTPUTS,
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


def test_parse_float_grid_refuses_steps_below_its_resolution():
    # grid values are rounded to 1e-12: a finer ellipsis step made no
    # progress (an endless loop), and a finer range step built 10^13 values
    for bad in ("0,1e-13,...,0.1", "0..1/1e-13"):
        with pytest.raises(ValueError, match="grid step must be at least 1e-12"):
            parse_float_grid(bad)
    assert parse_float_grid("0..3e-12/1e-12") == [0.0, 1e-12, 2e-12, 3e-12]
    # an absolute end slack of 1e-9 ran this grid on to 1.005e-9 (1,006 values)
    assert parse_float_grid("0,1e-12,...,5e-12") == [0.0, 1e-12, 2e-12, 3e-12, 4e-12, 5e-12]


@pytest.mark.parametrize(
    "parse, text, want",
    [
        # the float count slack dropped the last value: 3 values
        (parse_float_grid, "0.9..0.900000000003/1e-12",
         [0.9, 0.900000000001, 0.900000000002, 0.900000000003]),
        # the float step 9.9998e-13 was refused as below the resolution
        (parse_float_grid, "0.9,0.900000000001,...,0.900000000005",
         [0.9, 0.900000000001, 0.900000000002, 0.900000000003, 0.900000000004,
          0.900000000005]),
        # an OverflowError (exit 1), an endless loop, and a span of nan
        (parse_float_grid, "0..inf/0.1", "not finite"),
        (parse_float_grid, "0,0.5,...,inf", "not finite"),
        (parse_float_grid, "nan..0.5/0.1", "not finite"),
        # built value by value before any check, until memory ran out
        (parse_float_grid, "0..1/1e-12", "has 1000000000001 values"),
        (parse_float_grid, "0..0.999999999999/1e-12", "has 1000000000000 values"),
        (parse_float_grid, "0..1e300/0.5", "has 2" + "0" * 299 + "1 values"),
        (parse_int_range, "3..1000000000000", "has 999999999998 values"),
        # values before an ellipsis's last two are kept, on the lattice too
        (parse_float_grid, "0,0.2,0.3,...,0.6", [0.0, 0.2, 0.3, 0.4, 0.5, 0.6]),
        # an overflowing value, and one whose exact read would take minutes
        (parse_float_grid, "0..1e400/1", "not finite"),
        (parse_float_grid, "1e-99999999..0.5/0.25", [0.0, 0.25, 0.5]),
    ],
)
def test_grids_lie_on_the_lattice_and_are_counted_before_they_are_built(parse, text, want):
    if isinstance(want, str):
        with pytest.raises(ValueError, match=want):
            parse(text)
    else:
        assert parse(text) == want


@st.composite
def _lattice_grids(draw):
    count = draw(st.integers(min_value=0, max_value=50))
    step = draw(st.integers(min_value=1, max_value=(10**12 - 1) // max(count, 1)))
    start = draw(st.integers(min_value=0, max_value=10**12 - 1 - count * step))
    return start, step, count


@settings(max_examples=200, deadline=None)
@given(_lattice_grids())
def test_spans_and_ellipses_give_exact_lattice_points(grid):
    start, step, count = grid

    def text(units):
        return "0." + str(units).zfill(12)

    want = [(start + i * step) / 10**12 for i in range(count + 1)]
    end = text(start + count * step)
    assert parse_float_grid(f"{text(start)}..{end}/{text(step)}") == want
    if count:  # an ellipsis writes two values before its end
        assert parse_float_grid(f"{text(start)},{text(start + step)},...,{end}") == want


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
    assert set(payload) == {"radius", "lo", "hi", "width", "iterations", "perron", "checks"}
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


def test_radius_json_reports_certificate_cost(capsys):
    # a regular digraph certifies at the first check, an irregular one later
    iterations = []
    for flags, g in ((["cycle"], cycle(6)), (["knkm", "--k", "2", "--m", "1"], k_nkm(6, 2, 1))):
        rc, out, _ = run_cli(
            capsys, "radius", "--family", *flags, "--n", "6", "--alpha", "0.5",
            "--output", "json",
        )
        assert rc == EXIT_OK
        payload = json.loads(out)
        assert payload["width"] == payload["hi"] - payload["lo"]
        assert 0.0 < payload["width"] <= 1e-10
        assert payload["iterations"] == spectral_radius(g, 0.5).iterations
        iterations.append(payload["iterations"])
    assert iterations[0] == 1 < iterations[1]


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


def test_radius_one_vertex_passes_every_check(tmp_path, capsys):
    # alpha * maxdeg < rho holds for n >= 2 only; at n = 1 both are 0, and
    # the strict check printed FAIL for a true statement
    p = tmp_path / "one.dg"
    p.write_text("n 1\n")
    argv = ("radius", "--file", str(p), "--alpha", "0.5")
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == EXIT_OK and out.startswith("radius 0\n")
    checks = [line for line in out.splitlines() if line.startswith("check ")]
    assert checks == [
        "check alpha_maxdeg_strict_lower: pass",
        "check at_most_n_minus_one: pass",
        "check at_least_min_outdeg: pass",
        "check at_most_max_outdeg: pass",
    ]
    rc, out, _ = run_cli(capsys, *argv, "--output", "json")
    payload = json.loads(out)
    assert rc == EXIT_OK and payload["radius"] == payload["lo"] == 0.0
    assert payload["checks"] == [{"name": name, "pass": True} for name in (
        "alpha_maxdeg_strict_lower", "at_most_n_minus_one", "at_least_min_outdeg",
        "at_most_max_outdeg")]


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
    # a tol below every rounding floor stops the kernel at its first check
    rc, _, err = run_cli(
        capsys, "radius", "--family", "knkm", "--n", "6", "--k", "2", "--m", "1",
        "--alpha", "0", "--tol", "1e-300",
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


# every report subcommand in each form it offers, written by the one writer
_REPORTS = [
    (argv, output)
    for argv in (
        ["radius", "--family", "knkm", "--n", "5", "--k", "2", "--m", "1", "--alpha", "0.5"],
        ["formula", "--n", "6", "--k", "2", "--m", "1", "--alpha", "0.4"],
        ["scan", "--n", "4", "--alpha", "0.5", "--parameter", "girth"],
        ["explore", "--n", "4", "--alpha", "0,0.5"],
    )
    for output in OUTPUT_FORMATS
] + [(["verify", "T3.1", "--n", "4"], output) for output in VERIFY_OUTPUTS]


@pytest.mark.parametrize("argv, output", _REPORTS,
                         ids=[f"{argv[0]}-{output}" for argv, output in _REPORTS])
def test_report_out_file_equals_stdout(tmp_path, capsys, argv, output):
    target = tmp_path / "report"
    rc, out, err = run_cli(capsys, *argv, "--output", output)
    rc_file, out_file, err_file = run_cli(capsys, *argv, "--output", output, "--out", str(target))
    assert (rc, err, rc_file, out_file, err_file) == (EXIT_OK, "", EXIT_OK, "", "")
    assert out and target.read_bytes() == out.encode("utf-8")


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


def test_family_requires_family(capsys):
    rc, out, err = run_cli(capsys, "family", "--n", "4")
    assert rc == EXIT_USAGE and out == "" and "family requires --family" in err


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


@pytest.mark.parametrize("argv, witness", [
    (["formula", "--n", "3..8", "--alpha", "0.5", "--tol", "3e-15"],
     r"k_nkm\(\d+, \d+, \d+\) at alpha 0\.5: tol 3e-15 is below the rounding floor"),
    (["alpha", "--family", "cycle", "--n", "4", "--alpha", "0.5", "--tol", "1e-17"],
     r"cycle\(n=4\) at alpha 0\.5: tol 1e-17 is below the rounding floor"),
], ids=["formula", "alpha"])
def test_sweep_certification_failure_names_the_member_and_alpha(capsys, argv, witness):
    rc, out, err = run_cli(capsys, "sweep", *argv)
    assert rc == EXIT_PRECONDITION
    assert out == ""
    assert re.match("error: certification not reached: " + witness, err), err


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


def test_verify_refuses_a_witness_dir_that_is_not_a_directory(tmp_path, capsys):
    # refused before verifying, so a run that would be confirmed exits 2 too
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    for bad in (tmp_path / "missing", a_file):
        rc, out, err = run_cli(capsys, "verify", "T3.1", "--n", "3", "--witness-dir", str(bad))
        assert rc == EXIT_USAGE and out == "", bad
        assert "is not an existing directory" in err, bad


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
    rc, _, err = run_cli(capsys, "scan", "--n", "7", "--alpha", "0", "--parameter", "girth")
    assert rc == EXIT_USAGE and "n = 7 cannot be scanned" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("scan", "--n", "4", "--alpha", "0.5", "--parameter", "girth"),
        ("verify", "T3.1", "--n", "4"),
        ("verify", "L3.1", "--n", "3", "--alpha", "0.5"),
        ("explore", "--n", "4"),
    ],
)
def test_scan_verify_explore_honour_tol(capsys, argv):
    # a tol below every rounding floor certifies nothing, so the run must
    # stop, not report
    rc, out, err = run_cli(capsys, *argv, "--tol", "1e-300")
    assert rc == EXIT_PRECONDITION and out == ""
    assert "certification not reached" in err


def test_verify_primed_refuses_repeated_alphas(capsys):
    rc, out, err = run_cli(capsys, "verify", "L3.1", "--n", "3", "--alpha", "0.5,0.5")
    assert rc == EXIT_USAGE and out == ""
    assert "duplicate alpha values" in err


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
    assert {row[7] for row in rows[1:]} <= {"agrees", "differs", "not strong", "empty"}


# ---------------------------------------------------------------------------
# the tol setting

def test_config_validation_bounds(capsys):
    rc, _, err = run_cli(
        capsys, "radius", "--family", "cycle", "--n", "4", "--alpha", "0", "--tol", "-1"
    )
    assert rc == EXIT_USAGE and "tol" in err
    # a NaN tol is not positive either: it would stall the kernel (exit 3)
    for value in ("0", "nan"):
        rc, _, err = run_cli(
            capsys, "radius", "--family", "cycle", "--n", "4", "--alpha", "0.5", "--tol", value
        )
        assert rc == EXIT_USAGE and "tol must be positive" in err, value


@pytest.mark.parametrize("value", ["0", "nan", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ("radius", "--family", "cycle", "--n", "4", "--alpha", "0.5"),
        ("sweep", "formula", "--n", "4", "--alpha", "0"),
        ("sweep", "alpha", "--family", "cycle", "--n", "4", "--alpha", "0"),
        ("verify", "T3.1", "--n", "3"),
        ("scan", "--n", "3", "--alpha", "0", "--parameter", "girth"),
        ("explore", "--n", "3"),
    ],
)
def test_tol_is_checked_before_any_work(capsys, monkeypatch, argv, value):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before tol was checked")

    monkeypatch.setattr(cli.oracle, "run_scan", no_work)
    monkeypatch.setattr(cli, "spectral_radius", no_work)
    rc, out, err = run_cli(capsys, *argv, "--tol", value)
    assert rc == EXIT_USAGE and out == ""
    assert "tol must be positive" in err


# ---------------------------------------------------------------------------
# which settings each subcommand takes

SETTING_FLAGS = {"--tol", "--output", "--out"}


def _subparsers(parser=None):
    parser = parser or cli.build_parser()
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_subcommands_register_only_the_settings_they_read():
    want = {
        "radius": {"--tol", "--output", "--out"},
        "formula": {"--output", "--out"},
        "family": {"--out"},
        "sweep formula": {"--tol", "--out"},
        "sweep alpha": {"--tol", "--out"},
        "verify": SETTING_FLAGS,
        "scan": SETTING_FLAGS,
        "explore": SETTING_FLAGS,
    }
    outputs = {}
    subs = dict(_subparsers())
    subs.update({f"sweep {kind}": p for kind, p in _subparsers(subs.pop("sweep")).items()})
    for name, sub in subs.items():
        flags = {f for a in sub._actions for f in a.option_strings}
        assert flags & SETTING_FLAGS == want[name], name
        assert "--long-runs" not in flags
        outputs[name] = next((a.choices for a in sub._actions if "--output" in a.option_strings),
                             None)
    assert outputs["verify"] == ("text", "json")
    assert all(outputs[name] == ("text", "json", "csv")
               for name in ("radius", "formula", "scan", "explore"))
    # README's settings table lists the same flags, one row per subcommand
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Settings", 1)[1].split("\n#", 1)[0]
    table = {}
    for row in re.findall(r"^\| (`.+`) \| `([^`]+)`", section, flags=re.MULTILINE):
        for name in re.findall(r"`([^`]+)`", row[0]):
            table[name] = set(row[1].split())
    assert table == want


@pytest.mark.parametrize(
    "argv",
    [
        ("formula", "--n", "4", "--k", "1", "--m", "1", "--alpha", "0", "--tol", "1e-3"),
        ("formula", "--n", "4", "--k", "1", "--m", "1", "--alpha", "0", "--workers", "9"),
        ("radius", "--family", "cycle", "--n", "4", "--alpha", "0", "--workers", "2"),
        ("sweep", "alpha", "--family", "cycle", "--n", "4", "--alpha", "0", "--output", "json"),
        ("family", "--family", "cycle", "--n", "4", "--output", "json"),
        ("family", "--family", "cycle", "--n", "4", "--config", "run.cfg"),
        ("verify", "T3.1", "--n", "3", "--output", "csv"),
        ("scan", "--n", "3", "--alpha", "0", "--parameter", "girth", "--long-runs"),
        ("family", "--family", "tournament", "--kind", "extremal_bruteforce", "--n", "8",
         "--long-runs"),
        ("sweep", "formula", "--n", "4", "--alpha", "0", "--family", "cycle", "--kind",
         "transitive"),
        # the iteration cap is a constant: every subcommand that took it refuses it
        ("radius", "--family", "cycle", "--n", "4", "--alpha", "0", "--max-iters", "5"),
        ("sweep", "formula", "--n", "4", "--alpha", "0", "--max-iters", "5"),
        ("sweep", "alpha", "--family", "cycle", "--n", "4", "--alpha", "0", "--max-iters", "5"),
        ("verify", "T3.1", "--n", "3", "--max-iters", "5"),
        ("scan", "--n", "3", "--alpha", "0", "--parameter", "girth", "--max-iters", "5"),
        ("explore", "--n", "3", "--max-iters", "5"),
        # a scan runs in one process: no subcommand takes a worker count
        ("verify", "T3.1", "--n", "3", "--workers", "2"),
        ("scan", "--n", "3", "--alpha", "0", "--parameter", "girth", "--workers", "2"),
        ("explore", "--n", "3", "--workers", "2"),
        # settings are flags only: no subcommand reads a config file
        ("radius", "--family", "cycle", "--n", "4", "--alpha", "0", "--config", "run.cfg"),
        ("formula", "--n", "4", "--k", "1", "--m", "1", "--alpha", "0", "--config", "run.cfg"),
        ("sweep", "formula", "--n", "4", "--alpha", "0", "--config", "run.cfg"),
        ("sweep", "alpha", "--family", "cycle", "--n", "4", "--alpha", "0", "--config", "run.cfg"),
        ("verify", "T3.1", "--n", "3", "--config", "run.cfg"),
        ("scan", "--n", "3", "--alpha", "0", "--parameter", "girth", "--config", "run.cfg"),
        ("explore", "--n", "3", "--config", "run.cfg"),
    ],
)
def test_flags_a_subcommand_does_not_read_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == EXIT_USAGE


def test_sweep_kinds_register_their_own_input_flags():
    kinds = _subparsers(_subparsers()["sweep"])
    flags = {name: {f for a in sub._actions for f in a.option_strings} - {"-h", "--help"}
             for name, sub in kinds.items()}
    assert flags["formula"] == {"--n", "--alpha", "--tol", "--out"}
    assert {"--file", "--family", "--n", "--kind", "--family-alpha"} <= flags["alpha"]
    args = cli.build_parser().parse_args(
        ["sweep", "alpha", "--family", "tournament", "--kind", "rotational", "--alpha", "0"]
    )
    assert (args.sweep_kind, args.kind) == ("alpha", "rotational")


# ---------------------------------------------------------------------------
# which input flags each family takes

@pytest.mark.parametrize(
    "argv, unread",
    [
        (("radius", "--family", "cycle", "--n", "4", "--g", "3", "--primed", "--alpha", "0"),
         ("--g", "--primed")),
        (("family", "--family", "cycle", "--n", "4", "--alpha", "0.7"), ("--alpha",)),
        (("radius", "--file", "{file}", "--g", "3", "--alpha", "0"), ("--g",)),
        (("sweep", "alpha", "--file", "{file}", "--family-alpha", "0.4", "--alpha", "0"),
         ("--family-alpha",)),
        (("sweep", "alpha", "--family", "cycle", "--n", "4", "--alpha", "0",
          "--family-alpha", "0.5"), ("--family-alpha",)),
        # the tournament takes alpha, but only the extremal search reads it
        (("family", "--family", "tournament", "--kind", "rotational", "--n", "5",
          "--alpha", "0.5"), ("--alpha",)),
        (("sweep", "alpha", "--family", "tournament", "--kind", "rotational", "--n", "5",
          "--alpha", "0", "--family-alpha", "0.5"), ("--family-alpha",)),
    ],
)
def test_family_flags_the_input_does_not_take_are_usage_errors(tmp_path, capsys, argv, unread):
    path = tmp_path / "tri.dg"
    path.write_text(cli.to_text(cycle(3)))
    rc, out, err = run_cli(capsys, *(a.format(file=path) for a in argv))
    assert rc == EXIT_USAGE and out == ""
    assert all(flag in err for flag in unread), err


def test_sweep_alpha_tournament_requires_kind(capsys):
    rc, out, err = run_cli(capsys, "sweep", "alpha", "--family", "tournament", "--n", "4",
                           "--alpha", "0")
    assert rc == EXIT_USAGE and out == "" and "requires --kind" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("family", "--family", "g0", "--n", "5", "--d", "2", "--alpha", "0.5"),
        ("sweep", "alpha", "--family", "tournament", "--kind", "rotational", "--n", "5",
         "--alpha", "0"),
        ("radius", "--family", "tournament", "--kind", "rotational", "--n", "5",
         "--alpha", "0.5"),
        ("family", "--family", "tournament", "--kind", "extremal_bruteforce", "--n", "4",
         "--alpha", "0.5"),
    ],
)
def test_family_flags_the_generator_takes_are_accepted(capsys, argv):
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == EXIT_OK and out


@pytest.mark.parametrize(
    "argv, repeated",
    [
        (("sweep", "formula", "--n", "4", "--alpha", "0,0"), "duplicate alpha values"),
        (("sweep", "alpha", "--family", "cycle", "--n", "4", "--alpha", "0,0.5,0"),
         "duplicate alpha values"),
        (("sweep", "formula", "--n", "4,4", "--alpha", "0"), "duplicate orders"),
    ],
)
def test_sweep_refuses_a_repeated_grid_value(capsys, argv, repeated):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == EXIT_USAGE and out == "" and repeated in err


# ---------------------------------------------------------------------------
# installed entry point

def test_unbounded_grids_exit_2_without_hanging():
    # these hung with memory growing, or exited 1 with a traceback; one child
    # runs all three as `python -m alphaspec.cli` does, under a 2 GB address
    # space, so the timeout or the limit ends whatever hangs
    grids = ["0,0.5,...,inf", "0..1e300/0.5", "0..inf/0.1"]
    child = (
        "import resource, runpy, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "for grid in sys.argv[1:]:\n"
        "    sys.argv = ['alphaspec', 'sweep', 'alpha', '--family', 'cycle', '--n', '3',\n"
        "                '--alpha', grid]\n"
        "    try:\n"
        "        runpy.run_module('alphaspec.cli', run_name='__main__')\n"
        "    except SystemExit as exc:\n"
        "        print(exc.code)\n"
    )
    src = os.path.dirname(os.path.dirname(alphaspec.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", child, *grids],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.stdout.split() == ["2", "2", "2"]
    assert proc.stderr.count("error: ") == 3 and "Traceback" not in proc.stderr


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
