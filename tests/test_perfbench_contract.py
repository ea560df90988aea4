"""The benchmark under perfbench/ reads the program by name: its tracer wraps
functions looked up as module attributes, and its self-test runs its checks
against the program.  These tests keep the program's side of that contract."""
import importlib.util
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_exists():
    # a missing name (oracle.is_isomorphic, say, which oracle imports only
    # for the tracer) would make every traced benchmark run fail
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing.targets()
    assert targets
    missing = [f"{mod.__name__}.{attr}" for mod, attr, _span in targets if not hasattr(mod, attr)]
    assert missing == []


def test_benchmark_selftest_passes():
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "selftest.py")],
        cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_scan_call_shapes_perfbench_uses():
    # perfbench/workloads.py scans with run_scan(5, alphas, parameters,
    # workers=1) and reads each group's labelled codes, first and drawn
    from alphaspec import oracle

    scan = oracle.run_scan(3, (0.0, 0.5), oracle.SCAN_PARAMETERS, workers=1)
    for per_alpha in scan.groups.values():
        for modes in per_alpha:
            for ext in modes.values():
                assert ext.codes and ext.codes[0] == min(ext.codes)
                assert len(ext.codes) == ext.count


def test_sweep_keys_perfbench_reads():
    # perfbench/checks.py reads a sweep's checked count, its largest excess
    # and its violations
    from alphaspec import oracle

    out = oracle.subdivision_sweep(3, (0.0,))
    assert out["checked"] == 72
    assert out["max_excess"] < 0.0
    assert out["violations"] == []


def test_cli_calls_perfbench_makes_parse(monkeypatch, tmp_path):
    # perfbench/workloads.py drives the CLI through cli.main: warm_up's
    # formula call and the family-sweeps sweeps, each with --out; a flag the
    # parser no longer takes would first show as a failed benchmark run
    from alphaspec import cli

    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    workloads.warm_up(tmp_path)
    sweeps = workloads.FamilySweeps(1, tmp_path)
    sweeps.prepare()
    assert sweeps.cli_runs
    parser = cli.build_parser()
    for run in sweeps.cli_runs:
        args = parser.parse_args(run + ["--out", str(tmp_path / "sweep.csv")])
        assert args.command == "sweep", run
