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


def test_diff_reports_nothing_on_the_committed_goldens(capsys):
    assert regen.main(["--diff"]) == 0
    assert capsys.readouterr().out == "no golden moved\n"


def test_diff_tells_a_moved_float_from_other_changes(tmp_path, capsys):
    import json
    import math

    regen.run_all(str(tmp_path))
    report = tmp_path / "evaluate-families.json"
    seq = tmp_path / "seq-augment.json"
    history = tmp_path / "seq.json.history.csv"
    original = {p: p.read_text() for p in (report, seq, history)}

    def edit(path, change):
        d = json.loads(original[path])
        change(d)
        path.write_text(json.dumps(d))

    def moved(d):
        d["brier"] = math.nextafter(d["brier"], 1.0)

    edit(report, moved)
    assert regen.diff(str(tmp_path)) == 0
    assert capsys.readouterr().out.startswith("evaluate-families.json: 1 numbers moved")

    def flipped(d):
        d["uc"]["top_class"]["sign"] *= -1

    def respecified(d):
        theta = d["records"][0]["spec"]["params"]["theta"]
        theta[1] = math.nextafter(theta[1], 2.0)

    for path, change in ((report, flipped), (seq, respecified)):
        edit(path, change)
        assert regen.diff(str(tmp_path)) == 1
        assert "NOT A FLOAT CHANGE" in capsys.readouterr().out
        path.write_text(original[path])
    history.write_text(original[history].rsplit("\n", 2)[0] + "\n")  # one row fewer
    assert regen.diff(str(tmp_path)) == 1
    assert "NOT A FLOAT CHANGE" in capsys.readouterr().out
