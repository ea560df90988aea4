"""Golden outputs of the exhaustive scans at n <= 5, and their regeneration.

outputs() names every recorded output and how to compute it: each ScanStats
field of run_scan(n, (0, 0.5)) and run_scan(n, (0.999,)) for n = 2..5, each
subdivision_sweep(n, (0, 0.5)) for n = 2..5, and the seven enumeration
verdicts at n = 5 over (0, 0.5).  encode() turns an output into JSON values;
a GroupExtreme's labelled codes are kept as the SHA-256 of their sorted
list, since a tuple of orbits would be most of the file.  Floats are written
by repr, so a JSON round trip keeps them bit for bit.

    python tests/golden_outputs.py

rewrites golden_outputs.json beside this file with the numpy version that
made it.  test_golden_outputs.py compares against that file under ==.
Before it writes, it prints one line per entry that differs from the file
it replaces (report): how many floats moved, the largest |delta|, and
every other field that moved (a status, class, count, code hash or
iteration count) with its path and old and new value, or that the entry
is new or gone.
"""
from __future__ import annotations

import hashlib
import json
from functools import cache
from pathlib import Path

import numpy as np

from alphaspec import oracle

GOLDEN = Path(__file__).with_name("golden_outputs.json")
ORDERS = (2, 3, 4, 5)
SCAN_GRIDS = ((0.0, 0.5), (0.999,))
SWEEP_GRID = (0.0, 0.5)
VERDICT_N = 5


@cache
def _scan(n: int, alphas: tuple[float, ...]) -> oracle.ScanStats:
    return oracle.run_scan(n, alphas)


def _codes_hash(codes) -> str:
    return hashlib.sha256(",".join(map(str, sorted(codes))).encode()).hexdigest()


def _extreme(ext: oracle.GroupExtreme) -> dict:
    return {
        "value": ext.value,
        "codes_sha256": _codes_hash(ext.codes),
        "classes": list(ext.classes),
        "count": ext.count,
        "runner_up": ext.runner_up,
    }


def _scan_fields(s: oracle.ScanStats) -> dict:
    return {
        "n": s.n,
        "alphas": list(s.alphas),
        "parameters": list(s.parameters),
        "tol": s.tol,
        "total_codes": s.total_codes,
        "strong_count": s.strong_count,
        "groups": [
            [param, value, [{m: _extreme(e[m]) for m in ("min", "max")} for e in per_alpha]]
            for (param, value), per_alpha in s.groups.items()
        ],
        "top": [[ai, [_extreme(e) for e in levels]] for ai, levels in s.top.items()],
        "bounds": [[ai, report] for ai, report in s.bounds.items()],
        "max_certificate_width": s.max_certificate_width,
        "max_iterations": s.max_iterations,
    }


def _verdict(v: oracle.VerificationVerdict) -> dict:
    return {
        "theorem": v.theorem,
        "n": v.n,
        "alphas": list(v.alphas),
        "status": v.status,
        "details": list(v.details),
        "witnesses": [[w.n, [list(arc) for arc in w.sorted_arcs]] for w in v.witnesses],
    }


def outputs() -> dict:
    """{name: thunk} for every recorded output; each thunk returns its
    output encoded as JSON values."""
    out = {}
    for n in ORDERS:
        for alphas in SCAN_GRIDS:
            out[f"run_scan n={n} alphas={list(alphas)}"] = (
                lambda n=n, alphas=alphas: _scan_fields(_scan(n, alphas))
            )
    for n in ORDERS:
        out[f"subdivision_sweep n={n} alphas={list(SWEEP_GRID)}"] = (
            lambda n=n: oracle.subdivision_sweep(n, SWEEP_GRID)
        )
    for t in oracle.ENUM_THEOREMS:
        out[f"verify {t} n={VERDICT_N} alphas={list(SWEEP_GRID)}"] = lambda t=t: _verdict(
            oracle.verify_theorem(t, VERDICT_N, SWEEP_GRID, scan=_scan(VERDICT_N, SWEEP_GRID))
        )
    return out


def encode(value):
    """value as it reads back from JSON: tuples become lists."""
    return json.loads(json.dumps(value))


def _compare(old, new, where: str, moved: list[float], other: list[str]) -> None:
    """Walk two JSON values side by side: append |new - old| to moved for
    every float that differs, and to other a note for every other
    difference (a value that is not a float, a type, a length or a key)."""
    if type(old) is float and type(new) is float:
        if old != new:
            moved.append(abs(new - old))
    elif type(old) is list and type(new) is list and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            _compare(a, b, f"{where}[{i}]", moved, other)
    elif type(old) is dict and type(new) is dict and old.keys() == new.keys():
        for key in old:
            _compare(old[key], new[key], f"{where}.{key}" if where else key, moved, other)
    elif type(old) is not type(new) or old != new:
        other.append(f"{where} {json.dumps(old)[:40]} -> {json.dumps(new)[:40]}")


def report(old: dict, new: dict) -> list[str]:
    """One line per entry of the outputs old and new ({name: JSON value})
    that differs: the floats that moved, the largest |delta|, and every
    other field that moved."""
    lines = []
    for name in sorted(old.keys() | new.keys()):
        if name not in new:
            lines.append(f"{name}: gone")
        elif name not in old:
            lines.append(f"{name}: new")
        else:
            moved: list[float] = []
            other: list[str] = []
            _compare(old[name], new[name], "", moved, other)
            if moved or other:
                largest = f"{max(moved):.2g}" if moved else "-"
                lines.append(
                    f"{name}: {len(moved)} floats moved, largest |delta| {largest}; "
                    f"other fields moved: {'; '.join(other) if other else 'none'}"
                )
    return lines


def main() -> None:
    golden = {
        "numpy": np.__version__,
        "outputs": {name: encode(thunk()) for name, thunk in outputs().items()},
    }
    if GOLDEN.exists():
        old = json.loads(GOLDEN.read_text())
        lines = report(old["outputs"], golden["outputs"])
        for line in lines:
            print(line)
        print(f"{len(lines)} entries differ from the file made with numpy {old['numpy']}")
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {len(golden['outputs'])} outputs to {GOLDEN}")


if __name__ == "__main__":
    main()
