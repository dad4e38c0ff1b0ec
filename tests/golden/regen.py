"""Regenerate the golden CLI outputs under ``tests/golden/``.

    PYTHONPATH=src python tests/golden/regen.py
    PYTHONPATH=src python tests/golden/regen.py --diff

The input is a small deterministic dataset (n=200, C=6; the last 40 rows
repeat earlier rows, so tie-merging is exercised) and one utility JSON per
family, all drawn by :func:`write_inputs`, plus one committed patch
sequence.  Every run in :data:`RUNS` is a ``utilcal`` command line; its
output files go to ``tests/golden/expected/``, and ``tests/test_golden.py``
reruns the same commands and compares each file byte for byte.  Regenerate
only for a deliberate output change, and say in the commit why the bytes
moved.

``--diff`` writes nothing under ``tests/golden/``: it runs the commands into
a temporary directory and prints, for each output that differs from its
golden, how many numbers moved and the largest relative change.  It exits 1
on any change that is not a float moving: a spec or its parameters, a sign,
a label, a count, a record or row added or lost.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import tempfile

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
         "--family", "linear", "--m", "40", "--seed", "3",
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


# JSON keys whose numbers are utility parameters: a moved float below one is
# a different utility, not a rounding change.
SPEC_KEYS = ("spec", "utilities")


def _parse(path: str):
    """A golden's values: parsed JSON, or a CSV's rows of cells, each cell an
    int (written without a point or exponent), a float, or a string."""
    with open(path, encoding="utf-8") as fh:
        if path.endswith(".json"):
            return json.load(fh)
        rows = list(csv.reader(fh))

    def cell(text: str):
        for kind in (int, float):
            try:
                return kind(text)
            except ValueError:
                pass
        return text

    return [[cell(text) for text in row] for row in rows]


def _moved_floats(want, got, where: str, spec: bool, moved: list) -> None:
    """Walk two parsed outputs side by side and append (old, new) for each
    float that moved; raise ValueError at the first change that is not a
    float moving outside a spec."""
    if isinstance(want, float) and isinstance(got, float) and not spec:
        if want.hex() != got.hex():
            moved.append((want, got))
    elif isinstance(want, dict) and isinstance(got, dict) and want.keys() == got.keys():
        for k in want:
            _moved_floats(want[k], got[k], f"{where}.{k}", spec or k in SPEC_KEYS, moved)
    elif isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        for i, (w, g) in enumerate(zip(want, got)):
            _moved_floats(w, g, f"{where}[{i}]", spec, moved)
    elif type(want) is not type(got) or want != got:
        raise ValueError(f"{where}: {want!r} became {got!r}")


def diff(out_dir: str) -> int:
    """Compare every output in ``out_dir`` with its golden and print what
    moved; 1 when a change is not a float moving, else 0."""
    status, lines = 0, []
    for _, files in RUNS.values():
        for name in files:
            want_path, got_path = os.path.join(EXPECTED, name), os.path.join(out_dir, name)
            with open(want_path, "rb") as a, open(got_path, "rb") as b:
                if a.read() == b.read():
                    continue
            moved: list[tuple[float, float]] = []
            try:
                _moved_floats(_parse(want_path), _parse(got_path), name, False, moved)
                if not moved:
                    raise ValueError(f"{name}: bytes differ, values do not")
            except ValueError as exc:
                status = 1
                lines.append(f"{name}: NOT A FLOAT CHANGE at {exc}")
                continue
            largest = max(
                abs(g - w) / max(abs(w), abs(g)) if w or g else 0.0 for w, g in moved
            )
            lines.append(
                f"{name}: {len(moved)} numbers moved, largest relative change {largest:.2e}"
            )
    print("\n".join(lines) if lines else "no golden moved")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--diff", action="store_true",
        help="report how the outputs differ from the goldens; write nothing",
    )
    if parser.parse_args(argv).diff:
        with tempfile.TemporaryDirectory() as out:
            run_all(out)
            return diff(out)
    write_inputs()
    os.makedirs(EXPECTED, exist_ok=True)
    run_all(EXPECTED)
    return 0


if __name__ == "__main__":
    sys.exit(main())
