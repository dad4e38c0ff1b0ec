"""One test per input check that the rest of the suite does not reach: the
CLI's exit code where a flag or file reaches the check, else the library's
error class and message."""

import re

import numpy as np
import pytest

from utilcal import (
    BinScheme,
    DomainError,
    FiniteDistribution,
    LabeledPredictions,
    UtilitySpec,
    gain_matrix_misaligned,
    gen_calibrated,
    gen_miscalibrated,
    sample_decision,
    sample_linear,
    split,
    two_point_distribution,
)
from utilcal.cli import main
from utilcal.dataset import write_labels_csv, write_predictions_csv
from utilcal.utilities import comb_pool


@pytest.fixture
def files(tmp_path):
    """A valid predictions/labels pair and an output path."""
    rng = np.random.default_rng(0)
    probs = rng.dirichlet(np.ones(3), size=20)
    write_predictions_csv(tmp_path / "p.csv", probs)
    write_labels_csv(tmp_path / "l.csv", rng.integers(0, 3, size=20))
    return {
        "preds": str(tmp_path / "p.csv"),
        "labels": str(tmp_path / "l.csv"),
        "out": str(tmp_path / "out"),
    }


IO = ["--preds", "{preds}", "--labels", "{labels}"]


@pytest.mark.parametrize(
    "args, code, message",
    [
        (["evaluate", *IO, "--bins", "0"], 2, "need at least one bin"),
        (["ecdf", *IO, "--family", "linear", "--m", "0", "--out", "{out}"], 2,
         "M must be >= 1"),
        (["synth", "calibrated", "--support", "0", "--out", "{out}"], 2,
         "support_size must be >= 1"),
    ],
    ids=["evaluate-bins-0", "ecdf-m-0", "synth-support-0"],
)
def test_flag_check_exit_code(files, capsys, args, code, message):
    assert main([a.format(**files) for a in args]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_renormalize_row_without_mass_exit_2(tmp_path, capsys):
    write_predictions_csv(tmp_path / "p.csv", np.array([[0.5, 0.5], [0.0, -0.5]]))
    write_labels_csv(tmp_path / "l.csv", np.array([0, 1]))
    rc = main(["validate", "--preds", str(tmp_path / "p.csv"),
               "--labels", str(tmp_path / "l.csv"), "--renormalize"])
    assert rc == 2
    assert "no positive mass" in capsys.readouterr().err


def test_utility_file_not_json_exit_3(files, tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text("top_class")
    rc = main(["evaluate", "--preds", files["preds"], "--labels", files["labels"],
               "--utility", str(spec_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "Expecting value" in err and len(err.strip().splitlines()) == 1


def _distribution(support, weights, cond_label):
    return lambda: FiniteDistribution(support, weights, cond_label)


HALF = [[0.5, 0.5], [0.9, 0.1]]


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: BinScheme(kind="x"), "unknown bin kind 'x'"),
        (lambda: LabeledPredictions(np.full(3, 1 / 3), np.array([0])), "probs must be 2-D"),
        (lambda: LabeledPredictions(np.full((2, 2), 0.5), np.zeros((2, 1), int)),
         "labels must be 1-D"),
        (lambda: LabeledPredictions(np.empty((0, 3)), np.empty(0, int)),
         "need at least one row"),
        (_distribution([[1.0], [1.0]], [0.5, 0.5], [[1.0], [1.0]]),
         "support must be S x C with C >= 2"),
        (_distribution(HALF, [1.0], HALF), "shapes do not match support"),
        (_distribution(HALF, [0.5, 0.5], HALF[:1]), "shapes do not match support"),
        (_distribution(HALF, [1.0, 0.0], HALF), "all weights must be positive"),
        (lambda: split(LabeledPredictions(np.full((1, 2), 0.5), np.array([0])), 0.5, 0),
         "need n >= 2 to split"),
        (lambda: gen_calibrated(0, 3, 2, seed=0), "n must be >= 1"),
        (lambda: gen_calibrated(5, 1, 2, seed=0), "C must be >= 2"),
        (lambda: gen_miscalibrated(two_point_distribution(), 0, seed=0), "n must be >= 1"),
        (lambda: UtilitySpec.top_k(0), "k must be >= 1"),
        (lambda: UtilitySpec.linear([[0.5, 0.5]]), "a must be a non-empty 1-D array"),
        (lambda: UtilitySpec("top_k"), "top_k needs parameter k"),
        (lambda: sample_linear(1, np.random.default_rng(0)), "C must be >= 2"),
        (lambda: sample_decision(3, 1, np.random.default_rng(0)), "K must be >= 2"),
        (lambda: comb_pool(1), "C must be >= 2"),
        (lambda: gain_matrix_misaligned(3, [[0, 3]], np.random.default_rng(0)),
         "class 3 out of range for C=3"),
        (lambda: gain_matrix_misaligned(3, [], np.random.default_rng(0)),
         "partition must contain at least one block"),
    ],
    ids=[
        "bin-kind", "probs-1d", "labels-2d", "zero-rows",
        "support-one-class", "weights-shape", "cond-label-shape", "zero-weight",
        "split-one-row", "gen-calibrated-n-0", "gen-calibrated-one-class",
        "gen-miscalibrated-n-0",
        "top-k-0", "linear-2d", "top-k-without-k",
        "sample-linear-one-class", "sample-decision-one-action", "comb-pool-one-class",
        "misaligned-class-out-of-range", "misaligned-empty-partition",
    ],
)
def test_library_check_raises(build, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        build()
