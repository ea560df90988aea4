"""Every recorded n <= 5 output equals golden_outputs.json, exactly.

An intended output change regenerates the file (python
tests/golden_outputs.py) and lists each changed entry in CHANGES.md.  If a
different numpy or BLAS build moves a radius in its last bit, regenerate the
file and say so; do not loosen the comparison.
"""
import json

import numpy as np
import pytest

from golden_outputs import GOLDEN, encode, outputs, report

_GOLDEN = json.loads(GOLDEN.read_text())
_OUTPUTS = outputs()


def test_golden_file_names_every_output():
    assert sorted(_GOLDEN["outputs"]) == sorted(_OUTPUTS)


@pytest.mark.parametrize("name", list(_OUTPUTS))
def test_output_matches_golden(name):
    got = encode(_OUTPUTS[name]())
    assert got == _GOLDEN["outputs"][name], (
        f"{name} differs from the golden file (made with numpy {_GOLDEN['numpy']}, "
        f"running numpy {np.__version__})"
    )


def test_regeneration_reports_what_moved():
    old = {"a": {"x": 1.0, "iters": 3, "vals": [0.5, -1.0]}, "b": [1.0], "c": "s"}
    new = {"a": {"x": 1.25, "iters": 4, "vals": [0.5, -1.5]}, "b": [1.0], "d": "s"}
    assert report(old, new) == [
        "a: 2 floats moved, largest |delta| 0.5; other fields moved: iters 3 -> 4",
        "c: gone",
        "d: new",
    ]
    assert report(old, old) == []
    # a length, a type or a string that moved is no float move
    lines = report({"e": [1.0], "f": 2, "g": "h1"}, {"e": [1.0, 2.0], "f": 2.0, "g": "h2"})
    assert all("0 floats moved" in line and "-> " in line for line in lines), lines
    assert len(lines) == 3
