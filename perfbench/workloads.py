"""The benchmark's workloads: seeded inputs, one job, and the job's checks.

Each workload builds its inputs from the benchmark seed (the program only
sees the generated files or arrays), computes reference values once through
the scalar path ``utilities.eval_utility`` plus this module's own prefix-sum
spread, and then checks every job's outputs against them.

Inputs are generated in row chunks straight into preallocated arrays, so
input building never sets the process's peak resident memory; the arrays are
reused by every rebuild.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np

from utilcal import cli, ecdf, patching, utilities
from utilcal.dataset import LabeledPredictions

CHUNK_ELEMENTS = 2**17  # 1 MiB of float64 per generator temporary
LOGIT_SCALE = 8.0  # logits uniform on [0, LOGIT_SCALE]
LABEL_TEMPERATURE = 1.5  # labels follow softmax(z / T): predictions over-confident
TOL = 1e-12


# --- input generators -------------------------------------------------------


def continuous_chunks(rng: np.random.Generator, n: int, C: int):
    """Continuous, miscalibrated rows: p = softmax(z) with i.i.d. uniform
    logits; labels drawn from the tempered softmax(z / T).  No two rows are
    equal (almost surely)."""
    chunk = max(1, CHUNK_ELEMENTS // C)
    for start in range(0, n, chunk):
        z = rng.random((min(chunk, n - start), C))
        z *= LOGIT_SCALE
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        z /= LABEL_TEMPERATURE
        cum = np.cumsum(np.exp(z, out=z), axis=1)
        u = rng.random(len(cum)) * cum[:, -1]
        yield p, np.minimum((cum < u[:, None]).sum(axis=1), C - 1)


def finite_chunks(rng: np.random.Generator, n: int, C: int, distinct: int):
    """Calibrated rows from ``distinct`` support points uniform on the
    simplex; each row's label law is the row itself."""
    e = -np.log1p(-rng.random((distinct, C)))
    support = e / e.sum(axis=1, keepdims=True)
    cum = np.cumsum(support, axis=1)
    chunk = max(1, CHUNK_ELEMENTS // C)
    for start in range(0, n, chunk):
        idx = rng.integers(0, distinct, size=min(chunk, n - start))
        u = rng.random(len(idx)) * cum[idx, -1]
        yield support[idx], np.minimum((cum[idx] < u[:, None]).sum(axis=1), C - 1)


def fill(chunks, probs: np.ndarray, labels: np.ndarray, csv: tuple[Path, Path] | None) -> dict:
    """Write ``chunks`` into the preallocated arrays and, when ``csv`` names
    (predictions, labels) paths, into CSV files.  Returns the input facts."""
    probs.setflags(write=True)  # LabeledPredictions froze it in a previous build
    labels.setflags(write=True)
    n, C = probs.shape
    # Rows hash to a wrapping uint64 dot product of their bit patterns: exact,
    # so equal rows always collide and distinct ones almost never do.
    mult = np.random.default_rng(0).integers(1, 2**63, size=C, dtype=np.uint64) | 1
    keys = np.empty(n, dtype=np.uint64)
    fhs = [open(path, "w", encoding="utf-8", newline="\n") for path in csv] if csv else []
    try:
        row = 0
        for p, y in chunks:
            rows = slice(row, row + len(p))
            probs[rows], labels[rows] = p, y
            keys[rows] = (p.view(np.uint64) * mult).sum(axis=1, dtype=np.uint64)
            if fhs:
                np.savetxt(fhs[0], p, delimiter=",", fmt="%.17g")
                np.savetxt(fhs[1], y, fmt="%d")
            row += len(p)
    finally:
        for fh in fhs:
            fh.close()
    return {
        "n": n,
        "C": C,
        "distinct_rows": int(len(np.unique(keys))),
        "input_bytes": sum(os.path.getsize(p) for p in csv) if csv else probs.nbytes + labels.nbytes,
    }


# --- scalar reference ---------------------------------------------------------


def prefix_spread(v: np.ndarray, r: np.ndarray) -> float:
    """max - min of the prefix sums of residuals summed over equal-v blocks."""
    order = np.argsort(v, kind="stable")
    vs = v[order]
    starts = np.flatnonzero(np.concatenate(([True], vs[1:] != vs[:-1])))
    prefix = np.concatenate(([0.0], np.cumsum(np.add.reduceat(r[order], starts))))
    return float(prefix.max() - prefix.min())


def reference_uc(spec, probs: np.ndarray, labels: np.ndarray) -> float:
    """Worst-interval error of ``spec`` through the row-by-row scalar path."""
    n = len(labels)
    v = np.empty(n)
    r = np.empty(n)
    for i in range(n):
        ev = utilities.eval_utility(spec, probs[i])
        v[i] = ev.v
        r[i] = ev.uvec[labels[i]] - ev.v
    return prefix_spread(v, r) / n


def sampled_linear_refs(seed: int, probs: np.ndarray, labels: np.ndarray, ms) -> dict:
    """Reference errors of the linear utilities an ecdf sweep with ``seed``
    samples as utilities ``ms``."""
    C = probs.shape[1]
    return {
        m: reference_uc(
            utilities.sample_utility("linear", C, utilities.derive_rng(seed, m)), probs, labels
        )
        for m in ms
    }


def _close(got: float, want: float, what: str) -> list[str]:
    if math.isfinite(got) and abs(got - want) <= TOL:
        return []
    return [f"{what}: got {got!r}, reference {want!r}"]


def _in_sorted(errors: np.ndarray, want: float, what: str) -> list[str]:
    i = int(np.searchsorted(errors, want))
    near = errors[max(i - 1, 0) : i + 1]
    if len(near) and float(np.min(np.abs(near - want))) <= TOL:
        return []
    return [f"{what}: reference {want!r} is not among the reported errors"]


def _ecdf_problems(errors: np.ndarray, M: int) -> list[str]:
    if errors.shape != (M,):
        return [f"expected {M} errors, got {errors.shape}"]
    if not np.all(np.isfinite(errors)) or errors.min() < 0.0 or errors.max() > 2.0:
        return ["errors outside [0, 2]"]
    if np.any(np.diff(errors) < 0):
        return ["errors are not sorted"]
    return []


# --- workloads ----------------------------------------------------------------


class Workload:
    """One workload: ``build`` the inputs, compute the ``reference`` once,
    then run ``job`` (the timed part), gather its ``outputs`` and ``verify``
    them."""

    name = ""

    def __init__(self, workdir: Path, seed: int) -> None:
        self.dir = workdir
        self.seed = seed

    def path(self, name: str) -> Path:
        return self.dir / name

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def build(self) -> dict:
        raise NotImplementedError

    def reference(self) -> None:
        raise NotImplementedError

    def job(self):
        raise NotImplementedError

    def outputs(self, result) -> tuple[bytes, ...]:
        raise NotImplementedError

    def verify(self, outputs: tuple[bytes, ...]) -> list[str]:
        raise NotImplementedError

    def clean(self) -> None:
        """Remove the previous job's outputs so none can be mistaken for new."""


class CliWorkload(Workload):
    """A workload whose job is one or more ``utilcal`` command lines.

    Its outputs are the bytes of ``out_files``, except that a file named in
    ``digested`` stands as its SHA-256 digest, read in blocks, and is checked
    from disk: holding a large output in memory would raise the process's
    peak resident memory above the program's own."""

    out_files: tuple[str, ...] = ()
    digested: tuple[str, ...] = ()

    def commands(self) -> list[list[str]]:
        raise NotImplementedError

    def job(self) -> list[int]:
        codes = []
        for argv in self.commands():
            codes.append(cli.main(argv))
            if codes[-1] != 0:
                break
        return codes

    def outputs(self, codes: list[int]) -> tuple[bytes, ...]:
        if any(codes) or len(codes) != len(self.commands()):
            raise RuntimeError(f"utilcal exited with codes {codes}")
        blobs = []
        for f in self.out_files:
            if f in self.digested:
                with open(self.path(f), "rb") as fh:
                    blobs.append(hashlib.file_digest(fh, "sha256").digest())
            else:
                blobs.append(self.path(f).read_bytes())
        return tuple(blobs)

    def clean(self) -> None:
        for f in self.out_files:
            self.path(f).unlink(missing_ok=True)


class EvaluateComb(CliWorkload):
    name = "evaluate-comb"
    out_files = ("report.json",)

    def __init__(self, workdir: Path, seed: int, tiny: bool = False) -> None:
        super().__init__(workdir, seed)
        self.n, self.C = (400, 6) if tiny else (10_000, 100)
        self.probs = np.empty((self.n, self.C))
        self.labels = np.empty(self.n, dtype=np.int64)

    def build(self) -> dict:
        csv = (self.path("preds.csv"), self.path("labels.csv"))
        return fill(continuous_chunks(self.rng(1), self.n, self.C), self.probs, self.labels, csv)

    def commands(self) -> list[list[str]]:
        return [[
            "evaluate", "--preds", str(self.path("preds.csv")),
            "--labels", str(self.path("labels.csv")),
            "--utility", "comb", "--utility", "top_class", "--utility", "dcg",
            "--out", str(self.path("report.json")),
        ]]

    def reference(self) -> None:
        C = self.C
        checked = [
            utilities.UtilitySpec.top_class(),
            utilities.UtilitySpec.class_wise(C // 3),
            utilities.UtilitySpec.top_k(C // 2),
            utilities.UtilitySpec.dcg(1.0),
        ]
        self.expected = {s.label(): reference_uc(s, self.probs, self.labels) for s in checked}
        p_label = self.probs[np.arange(self.n), self.labels]
        sq = np.einsum("ij,ij->i", self.probs, self.probs)
        self.expected_brier = float(np.mean(sq - 2.0 * p_label + 1.0))
        self.expected_accuracy = float(np.mean(self.probs.argmax(axis=1) == self.labels))

    def verify(self, outputs: tuple[bytes, ...]) -> list[str]:
        report = json.loads(outputs[0])
        uc = {name: entry["value"] for name, entry in report["uc"].items()}
        problems = []
        if len(uc) != 2 * self.C + 1 + len(utilities.DCG_GAMMA_GRID):
            problems.append(f"report has {len(uc)} utilities")
        for name, want in self.expected.items():
            problems += _close(uc.get(name, math.nan), want, f"uc[{name}]")
        pool = [v for k, v in uc.items() if k.startswith(("class_wise_", "top_k_"))]
        problems += _close(report["uc_comb"], max(pool, default=math.nan), "uc_comb")
        problems += _close(report["brier"], self.expected_brier, "brier")
        problems += _close(report["accuracy"], self.expected_accuracy, "accuracy")
        for key in ("tce_binned", "cwe_binned"):
            if not 0.0 <= report[key] <= 2.0:
                problems.append(f"{key} = {report[key]!r}")
        return problems


class EcdfFinite(CliWorkload):
    name = "ecdf-finite"
    out_files = ("ecdf.csv", "ecdf.csv.json")

    def __init__(self, workdir: Path, seed: int, tiny: bool = False) -> None:
        super().__init__(workdir, seed)
        self.n, self.C, self.distinct, self.M = (
            (500, 4, 5, 40) if tiny else (50_000, 10, 20, 200)
        )
        self.probs = np.empty((self.n, self.C))
        self.labels = np.empty(self.n, dtype=np.int64)

    def build(self) -> dict:
        csv = (self.path("preds.csv"), self.path("labels.csv"))
        chunks = finite_chunks(self.rng(2), self.n, self.C, self.distinct)
        return fill(chunks, self.probs, self.labels, csv)

    def commands(self) -> list[list[str]]:
        return [[
            "ecdf", "--preds", str(self.path("preds.csv")),
            "--labels", str(self.path("labels.csv")),
            "--family", "linear", "--m", str(self.M), "--threads", "2",
            "--seed", str(self.seed), "--out", str(self.path("ecdf.csv")),
        ]]

    def reference(self) -> None:
        self.expected = sampled_linear_refs(self.seed, self.probs, self.labels, (0, 1, self.M - 1))

    def verify(self, outputs: tuple[bytes, ...]) -> list[str]:
        lines = outputs[0].decode().splitlines()
        if lines[0] != "error,cdf":
            return [f"bad header {lines[0]!r}"]
        table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        errors = table[:, 0]
        problems = _ecdf_problems(errors, self.M)
        if problems:
            return problems
        if not np.array_equal(table[:, 1], np.arange(1, self.M + 1) / self.M):
            problems.append("cdf column is not rank/M")
        meta = json.loads(outputs[1])
        if (meta["family"], meta["M"], meta["seed"]) != ("linear", self.M, self.seed):
            problems.append(f"sidecar {meta}")
        for m, want in self.expected.items():
            problems += _in_sorted(errors, want, f"utility {m}")
        return problems


class PatchFitApply(CliWorkload):
    name = "patch-fit-apply"
    out_files = ("seq.json", "seq.json.history.csv", "patched.csv")
    digested = ("patched.csv",)
    # The loop would stop after 54-68 iterations, depending on the seed; the
    # cap makes every seed do the same work.
    iterations = 40

    def __init__(self, workdir: Path, seed: int, tiny: bool = False) -> None:
        super().__init__(workdir, seed)
        self.n, self.C, self.n_apply, self.epsilon = (
            (300, 4, 600, 0.1) if tiny else (10_000, 10, 20_000, 0.01)
        )
        self.probs = np.empty((self.n, self.C))
        self.labels = np.empty(self.n, dtype=np.int64)
        self.apply_probs = np.empty((self.n_apply, self.C))
        self.apply_labels = np.empty(self.n_apply, dtype=np.int64)
        self._transformed: dict[bytes, np.ndarray] = {}

    def build(self) -> dict:
        facts = fill(
            continuous_chunks(self.rng(3), self.n, self.C), self.probs, self.labels,
            (self.path("cal.csv"), self.path("cal_labels.csv")),
        )
        held = fill(
            continuous_chunks(self.rng(4), self.n_apply, self.C),
            self.apply_probs, self.apply_labels,
            (self.path("apply.csv"), self.path("apply_labels.csv")),
        )
        facts["n_apply"] = held["n"]
        facts["distinct_rows_apply"] = held["distinct_rows"]
        facts["input_bytes"] += held["input_bytes"]
        return facts

    def commands(self) -> list[list[str]]:
        seq = str(self.path("seq.json"))
        return [
            [
                "patch-fit", "--preds", str(self.path("cal.csv")),
                "--labels", str(self.path("cal_labels.csv")),
                "--epsilon", str(self.epsilon), "--max-iters", str(self.iterations),
                "--out", seq,
            ],
            [
                "patch-apply", seq, "--preds", str(self.path("apply.csv")),
                "--out", str(self.path("patched.csv")),
            ],
        ]

    def reference(self) -> None:
        self.max_iters = min(self.iterations, math.ceil(2 * self.C / self.epsilon**2) + 1)
        self.pool_refs: dict[str, float] = {}

    def _pool_ref(self, spec) -> float:
        key = spec.label()
        if key not in self.pool_refs:
            self.pool_refs[key] = reference_uc(spec, self.probs, self.labels)
        return self.pool_refs[key]

    def verify(self, outputs: tuple[bytes, ...]) -> list[str]:
        seq_json, history_csv, _ = outputs
        seq = patching.PatchSequence.from_json_dict(json.loads(seq_json))
        steps = len(seq.history)
        problems = []
        if not 1 <= steps <= self.max_iters or len(seq.records) != steps:
            return [f"{steps} history entries, {len(seq.records)} records"]
        if len(history_csv.decode().splitlines()) != steps + 1:
            problems.append("history CSV length differs from the sequence")
        for i, h in enumerate(seq.history):
            if h.brier_before - h.brier_after < h.err**2 / self.C - 1e-10:
                problems.append(f"step {i}: Brier drop below err^2/C")
        first = seq.history[0].err
        problems += _close(first, self._pool_ref(seq.records[0].spec), "first witness error")
        for spec in (utilities.UtilitySpec.class_wise(0), utilities.UtilitySpec.top_k(1)):
            if self._pool_ref(spec) > first + TOL:
                problems.append(f"{spec.label()} beats the first witness")

        # Transform before loading the CSV, so the two are never both held
        # alongside the transform's temporaries.
        if seq_json not in self._transformed:
            self._transformed[seq_json] = patching.transform(self.apply_probs, seq)
        patched = np.loadtxt(self.path("patched.csv"), delimiter=",", ndmin=2)
        if patched.shape != (self.n_apply, self.C):
            return problems + [f"patched CSV has shape {patched.shape}"]
        if patched.min() < 0.0 or np.max(np.abs(patched.sum(axis=1) - 1.0)) > 1e-9:
            problems.append("patched rows leave the simplex")
        if not np.array_equal(patched, self._transformed[seq_json]):
            problems.append("patch-apply CSV differs from in-process transform")
        return problems


class EcdfWide(Workload):
    name = "ecdf-wide"
    M = 24

    def __init__(self, workdir: Path, seed: int, tiny: bool = False) -> None:
        super().__init__(workdir, seed)
        self.n, self.C = (2_000, 50) if tiny else (100_000, 1_000)
        self.probs = np.empty((self.n, self.C))
        self.labels = np.empty(self.n, dtype=np.int64)

    def build(self) -> dict:
        facts = fill(continuous_chunks(self.rng(5), self.n, self.C), self.probs, self.labels, None)
        self.preds = LabeledPredictions(self.probs, self.labels)  # no copy
        return facts

    def job(self):
        return ecdf.ecdf_evaluate(self.preds, family="linear", M=self.M, seed=self.seed)

    def outputs(self, result) -> tuple[bytes, ...]:
        meta = (result.family, result.M, result.seed, result.band_halfwidth)
        return (result.errors.tobytes(), repr(meta).encode())

    def reference(self) -> None:
        self.expected = sampled_linear_refs(self.seed, self.probs, self.labels, (0, self.M - 1))

    def verify(self, outputs: tuple[bytes, ...]) -> list[str]:
        errors = np.frombuffer(outputs[0])
        problems = _ecdf_problems(errors, self.M)
        if outputs[1] != repr(("linear", self.M, self.seed, None)).encode():
            problems.append(f"result metadata {outputs[1]!r}")
        for m, want in self.expected.items():
            problems += _in_sorted(errors, want, f"utility {m}")
        return problems


WORKLOADS = {w.name: w for w in (EvaluateComb, EcdfFinite, PatchFitApply, EcdfWide)}
