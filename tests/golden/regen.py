"""Regenerate the golden CLI outputs under ``tests/golden/``.

    PYTHONPATH=src python tests/golden/regen.py

The input is a small deterministic dataset (n=200, C=6; the last 40 rows
repeat earlier rows, so tie-merging is exercised) and one utility JSON per
family, all drawn by :func:`write_inputs`, plus one committed patch
sequence.  Every run in :data:`RUNS` is a ``utilcal`` command line; its
output files go to ``tests/golden/expected/``, and ``tests/test_golden.py``
reruns the same commands and compares each file byte for byte.  Regenerate
only for a deliberate output change, and say in the commit why the bytes
moved.
"""

from __future__ import annotations

import json
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS = os.path.join(HERE, "inputs")
EXPECTED = os.path.join(HERE, "expected")

N, C, N_REPEAT = 200, 6, 40
FAMILY_FILES = (
    "top_class", "class_wise", "top_k", "rank", "linear",
    "dcg", "decision", "gain_matrix", "similarity",
)


def _input(name: str) -> str:
    return os.path.join(INPUTS, name)


# name -> (argv, output files); "{out}" is the output directory.
RUNS = {
    "evaluate-families": (
        ["evaluate", "--preds", _input("preds.csv"), "--labels", _input("labels.csv"),
         "--bins", "5", "--out", "{out}/evaluate-families.json"]
        + [a for fam in FAMILY_FILES for a in ("--utility", _input(f"{fam}.json"))]
        + ["--utility", "comb", "--utility", "dcg"],
        ["evaluate-families.json"],
    ),
    "evaluate-tokens": (
        ["evaluate", "--preds", _input("preds.csv"), "--labels", _input("labels.csv"),
         "--bin-kind", "equal-width", "--out", "{out}/evaluate-tokens.json",
         "--utility", "top_class", "--utility", "class_wise:2",
         "--utility", "top_k:3", "--utility", "dcg:1.5"],
        ["evaluate-tokens.json"],
    ),
    "ecdf-linear": (
        ["ecdf", "--preds", _input("preds.csv"), "--labels", _input("labels.csv"),
         "--family", "linear", "--m", "40", "--seed", "3", "--threads", "2",
         "--keep-utilities", "--out", "{out}/ecdf-linear.csv"],
        ["ecdf-linear.csv", "ecdf-linear.csv.json"],
    ),
    "ecdf-rank": (
        ["ecdf", "--preds", _input("preds.csv"), "--labels", _input("labels.csv"),
         "--family", "rank", "--m", "40", "--seed", "4", "--keep-utilities",
         "--out", "{out}/ecdf-rank.csv"],
        ["ecdf-rank.csv", "ecdf-rank.csv.json"],
    ),
    "patch-fit": (
        ["patch-fit", "--preds", _input("preds.csv"), "--labels", _input("labels.csv"),
         "--epsilon", "0.02", "--max-iters", "30", "--out", "{out}/seq.json"],
        ["seq.json", "seq.json.history.csv"],
    ),
    "patch-fit-augment": (
        ["patch-fit", "--preds", _input("preds.csv"), "--labels", _input("labels.csv"),
         "--epsilon", "0.02", "--max-iters", "15",
         "--augment", "30", "--seed", "5", "--out", "{out}/seq-augment.json"],
        ["seq-augment.json", "seq-augment.json.history.csv"],
    ),
    # a committed sequence whose steps are err/C, the step earlier versions
    # of patch-fit took: sequence files fitted then still apply unchanged
    "patch-apply": (
        ["patch-apply", _input("seq-err-over-c.json"), "--preds", _input("preds.csv"),
         "--out", "{out}/patched.csv"],
        ["patched.csv"],
    ),
}


def run_all(out_dir: str) -> None:
    """Run every command of :data:`RUNS`, in order, writing into ``out_dir``."""
    from utilcal.cli import main

    for name, (argv, _) in RUNS.items():
        rc = main([a.replace("{out}", out_dir) for a in argv])
        if rc != 0:
            raise RuntimeError(f"golden run {name} exited {rc}")


def write_inputs() -> None:
    """The dataset and utility JSONs, drawn from fixed numpy streams."""
    from utilcal.dataset import write_labels_csv, write_predictions_csv

    rng = np.random.default_rng(20261018)
    logits = rng.normal(0.0, 1.5, size=(N - N_REPEAT, C))
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    probs = np.vstack([probs, probs[:N_REPEAT]])
    # labels from a tempered copy of the predictions: miscalibrated on purpose
    tempered = probs**0.5
    tempered /= tempered.sum(axis=1, keepdims=True)
    draws = (rng.random(N)[:, None] > np.cumsum(tempered, axis=1)).sum(axis=1)
    labels = np.minimum(draws, C - 1)
    os.makedirs(INPUTS, exist_ok=True)
    write_predictions_csv(_input("preds.csv"), probs)
    write_labels_csv(_input("labels.csv"), labels)

    sim = rng.uniform(-1.0, 1.0, size=(C, C))
    sim = (sim + sim.T) / 2.0
    np.fill_diagonal(sim, 1.0)
    gain = rng.uniform(0.0, 0.3, size=(C, C))
    np.fill_diagonal(gain, 1.0)
    params = {
        "top_class": {},
        "class_wise": {"c": 2},
        "top_k": {"k": 3},
        "rank": {"theta": sorted(rng.uniform(-1.0, 1.0, C).tolist(), reverse=True)},
        "linear": {"a": rng.uniform(-1.0, 1.0, C).tolist()},
        "dcg": {"gamma": 0.75},
        "decision": {"loss": rng.uniform(-1.0, 1.0, size=(C, 3)).tolist()},
        "gain_matrix": {"gain": gain.tolist()},
        "similarity": {"sim": sim.tolist()},
    }
    for fam in FAMILY_FILES:
        with open(_input(f"{fam}.json"), "w", encoding="utf-8") as fh:
            json.dump({"family": fam, "params": params[fam]}, fh, indent=2)
            fh.write("\n")


if __name__ == "__main__":
    write_inputs()
    os.makedirs(EXPECTED, exist_ok=True)
    run_all(EXPECTED)
