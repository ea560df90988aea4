"""Every recorded n <= 5 output equals golden_outputs.json, exactly.

An intended output change regenerates the file (python
tests/golden_outputs.py) and lists each changed entry in CHANGES.md.  If a
different numpy or BLAS build moves a radius in its last bit, regenerate the
file and say so; do not loosen the comparison.
"""
import json

import numpy as np
import pytest

from golden_outputs import GOLDEN, encode, outputs

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
