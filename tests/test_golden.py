"""Byte-for-byte comparison of every CLI command against committed goldens.

The goldens under ``tests/golden/expected/`` are written by
``tests/golden/regen.py``; a change that moves any output bit fails here and
must regenerate them deliberately.
"""

import importlib.util
import os

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_regen", os.path.join(os.path.dirname(__file__), "golden", "regen.py")
)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    regen.run_all(str(out))
    return out


@pytest.mark.parametrize(
    "name", [f for _, files in regen.RUNS.values() for f in files]
)
def test_output_matches_golden(outputs, name):
    got = (outputs / name).read_bytes()
    with open(os.path.join(regen.EXPECTED, name), "rb") as fh:
        want = fh.read()
    assert got == want, f"{name} differs from its golden"


def test_goldens_cover_every_family():
    from utilcal.utilities import FAMILIES

    assert set(regen.FAMILY_FILES) == set(FAMILIES)
