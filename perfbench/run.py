"""Benchmark for alphaspec: end-to-end figures, or per-layer figures when traced.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload subdiv5 --seed 1 --seconds 14 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 14 --trace 0

A single workload runs in this process; ``all`` runs each workload in a
fresh process, one after the other.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Each run
also writes perfbench/results/<workload>_seed<seed>_trace<t>.json, and a
traced run writes its spans to perfbench/results/spans_<workload>_seed<seed>.json.
See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 4  # set-up is timed in this process and in this many fresh ones

def use_source_tree() -> None:
    """Import alphaspec from this checkout's src/ and nowhere else."""
    if not (SRC / "alphaspec" / "__init__.py").is_file():
        sys.exit(f"error: no alphaspec sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def _set_up() -> float:
    """Import alphaspec and make the warm-up calls; returns the seconds taken."""
    t0 = time.perf_counter()
    import alphaspec  # noqa: F401
    from workloads import warm_up

    warm_up(RESULTS)
    return time.perf_counter() - t0


def _probe_set_up() -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def _machine() -> dict:
    import numpy

    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "src_lines": src_lines,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    tracer = None
    if trace:
        import alphaspec  # noqa: F401
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    setup = [_set_up()]
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed, RESULTS)
    wl.prepare()
    walls: list[float] = []
    cpus: list[float] = []
    reference = None
    while True:
        t0, c0 = time.perf_counter(), time.process_time()
        out = wl.round()
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        fp = wl.fingerprint(out)
        if reference is None:
            # the full checks run on the first round, off the clock; later
            # rounds are held to the first round's outputs
            fails, failed_ops = wl.check(out)
            reference = fp
        elif fp != reference:
            fails.append(f"round {len(walls)}: outputs differ from round 1")
        del out, fp
        # a traced run makes one round: its per-layer counts then repeat exactly
        if trace or sum(walls) >= seconds:
            break
    rounds = len(walls)
    wall = median(walls)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not trace:
        # after the rounds, so that the pipes of the probes do not shift the
        # heap the rounds allocate from
        setup += [_probe_set_up() for _ in range(SETUP_PROBES)]
    if trace:
        tracer.uninstall()
        metrics = tracer.metrics()
        metrics["trace.wall_s"] = wall
        tracer.dump(RESULTS / f"spans_{name}_seed{seed}.json")
    else:
        metrics = {
            "setup_s": median(setup),
            "wall_s": wall,
            "cases_per_s": wl.cases / wall,
            "peak_rss_mb": peak_rss_mb,
        }
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "rounds": rounds,
        "round_wall_s": walls,
        "round_cpu_s": cpus,
        "setup_samples_s": setup,
        "cases_per_round": wl.cases,
        "correct": not fails,
        "failures": fails[:50],
        "failed_operations": failed_ops,
        "attempted": wl.attempted * rounds,
        "failed": len(failed_ops) * rounds,
        "metrics": metrics,
        "machine": _machine(),
    }


def _units(trace: bool) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _report(res: dict, units: dict) -> None:
    print(f"workload {res['workload']}  seed {res['seed']}  rounds {res['rounds']}")
    for name, value in res["metrics"].items():
        print(f"  {name:<48} {value:>16.6g} {units.get(name, '')}")
    print(f"  attempted {res['attempted']}  failed {res['failed']}  correct {res['correct']}")
    for line in res["failures"][:10]:
        print(f"  FAILED CHECK: {line}")


def _run_all(args) -> dict:
    """Each workload in its own fresh process, serially."""
    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        if proc.returncode != 0:
            sys.exit(f"error: workload {name} exited with {proc.returncode}\n{proc.stderr}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for metric, value in res["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    return merged


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("scan5-verify", "subdiv5", "family-sweeps", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=14)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    # numpy advises the kernel to back large arrays with 2 MB pages; whether
    # it does then depends on addresses and on the machine's free memory, and
    # made the peak RSS of identical runs differ by up to 14 %
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    use_source_tree()
    RESULTS.mkdir(exist_ok=True)
    if args.setup_probe:
        print(_set_up())
        return
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        print(json.dumps(_run_all(args)))
        return
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    path = RESULTS / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(res, indent=1) + "\n", encoding="utf-8")
    units = _units(bool(args.trace))
    _report(res, units)
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in res["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
