"""Prediction/label containers, validation, splitting, and synthetic generators.

Two kinds of objects live here: empirical samples (``LabeledPredictions``)
and exact finite-support populations (``FiniteDistribution``).  The latter
make population-level quantities computable in closed form, which the exact
guarantee checks in :mod:`utilcal.estimators` rely on.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import sys
import warnings
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParseError, ValidationError

# Tolerances: external float32 exports are noisy, internal math is double
# precision, hence the two tiers.
ROW_SUM_TOL = 1e-6
ENTRY_TOL = -1e-9
FATAL_ROW_SUM = 1e-3
FATAL_ENTRY = -1e-6
EXACT_TOL = 1e-12


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.setflags(write=False)
    return out


def as_float(name: str, value) -> float:
    """``value`` as a float; a bool or a non-real value (JSON ``"0.2"``,
    ``true``) is a TypeError, and an integer past the float range is +-inf
    as JSON's ``1e400`` is."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def json_floats(name: str, value):
    """A JSON number, or an array of them nested to any depth, with every
    entry read by :func:`as_float`: a string, boolean or null entry is a
    TypeError."""
    if isinstance(value, list):
        return [json_floats(name, item) for item in value]
    return as_float(f"{name} entry", value)


def _first_close_pair(points: np.ndarray) -> tuple[int, int] | None:
    """The lexicographically smallest pair (i, j), i < j, of simplex rows
    within EXACT_TOL of each other in max norm, or None.

    One stable sort of the rows' projections on the fixed direction
    d_k = cos(k + 1), which no support's structure shares (a zero column
    would tie every row): a close pair projects within |d|_1 * EXACT_TOL,
    and a computed projection of a simplex row is within about C * eps of
    the exact one, so each row's window, the sorted places within that
    reach of its own widened by 4 (C + 1) eps, holds every close partner.
    Too wide a reach costs comparisons, never pairs: every candidate still
    passes the max-norm test.  Rows are checked against their windows in
    index order, about S comparisons at a time, and the sweep stops at the
    first row with a partner: that row is i, since an earlier partner would
    have been found first, and j is its smallest partner.  Memory stays
    O(S C) however many rows coincide.
    """
    s, c = points.shape
    direction = np.cos(np.arange(1.0, c + 1.0))
    reach = np.abs(direction).sum() * EXACT_TOL + 4 * (c + 1) * np.finfo(float).eps
    proj = points @ direction
    order = np.argsort(proj, kind="stable")
    ranked = proj[order]
    rank = np.empty(s, dtype=np.intp)
    rank[order] = np.arange(s)
    lo = np.searchsorted(ranked, ranked - reach, side="left")[rank]
    width = np.searchsorted(ranked, ranked + reach, side="right")[rank] - lo
    seen = np.concatenate(([0], np.cumsum(width)))  # comparisons before row i
    start = 0
    while start < s:
        stop = max(start + 1, int(np.searchsorted(seen, seen[start] + s, side="right")) - 1)
        row = np.repeat(np.arange(start, stop), width[start:stop])
        shift = np.repeat(seen[start:stop] - lo[start:stop], width[start:stop])
        partner = order[np.arange(seen[start], seen[stop]) - shift]
        near = (partner != row) & (
            np.max(np.abs(points[partner] - points[row]), axis=1) <= EXACT_TOL
        )
        if near.any():
            i = row[near][0]
            return int(i), int(partner[near & (row == i)].min())
        start = stop
    return None


@dataclass(frozen=True)
class LabeledPredictions:
    """An n x C probability matrix plus n true-class indices.

    Construction checks shapes (n >= 1, C >= 2) and the invariants no
    repair can restore: it raises :class:`ValidationError` when an entry is
    NaN, infinite or outside [-1, 2] (far looser than any simplex tolerance)
    or a label lies outside [0, C), so every estimator can rely on them.
    The simplex tolerances are the job of :func:`validate`, so
    that noisy external data can be loaded, inspected, and optionally
    repaired.  Arrays are made read-only, so whatever holds them (a grouped
    law may hold the matrix itself) sees them unchanged.
    """

    probs: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        raw = np.asarray(self.labels)
        with np.errstate(invalid="ignore"):  # NaN casts to garbage, caught below
            labels = raw.astype(np.int64, copy=False)
        if raw.dtype.kind not in "biu" and not np.array_equal(labels, raw):
            bad = raw[labels != raw][0]
            raise ValidationError(f"labels must be integers, found {bad}")
        if probs.ndim != 2:
            raise DomainError(f"probs must be 2-D, got ndim={probs.ndim}")
        if labels.ndim != 1:
            raise DomainError(f"labels must be 1-D, got ndim={labels.ndim}")
        n, c = probs.shape
        if n < 1:
            raise DomainError("need at least one row")
        if c < 2:
            raise DomainError(f"need at least two classes, got C={c}")
        if labels.shape[0] != n:
            raise DomainError(
                f"labels length {labels.shape[0]} does not match n={n}"
            )
        # A NaN or infinite entry makes its row sum non-finite: one reduction
        # per row finds them without an n x C temporary.
        row_sums = probs.sum(axis=1)
        finite = np.isfinite(row_sums)
        if not finite.all():
            bad = np.flatnonzero(~finite)
            raise ValidationError(
                f"{len(bad)} row(s) sum to a non-finite value, e.g. row {bad[0]} "
                f"sums to {row_sums[bad[0]]}: entries must be finite"
            )
        lo, hi = probs.min(), probs.max()
        if lo < -1.0 or hi > 2.0:
            raise ValidationError(f"entries must lie in [-1, 2], found {lo}..{hi}")
        lo, hi = labels.min(), labels.max()
        if lo < 0 or hi >= c:
            raise ValidationError(f"labels must lie in [0, {c}), found {lo}..{hi}")
        object.__setattr__(self, "probs", _freeze(probs))
        object.__setattr__(self, "labels", _freeze(labels))

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    @property
    def C(self) -> int:
        return self.probs.shape[1]

    def take(self, idx: np.ndarray) -> "LabeledPredictions":
        return LabeledPredictions(self.probs[idx], self.labels[idx])


@dataclass(frozen=True)
class FiniteDistribution:
    """Finite-support population over (prediction vector, label) pairs.

    ``support[s]`` is a prediction vector, ``weights[s]`` its probability,
    and ``cond_label[s]`` the conditional label law at that point.  All
    invariants are enforced to within 1e-12 because these objects are built
    internally in double precision; support points within 1e-12 in every
    coordinate are one point, and the error names the lexicographically
    smallest such pair, found in one sorted sweep (:func:`_first_close_pair`).
    """

    support: np.ndarray
    weights: np.ndarray
    cond_label: np.ndarray

    def __post_init__(self) -> None:
        support = np.asarray(self.support, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        cond = np.asarray(self.cond_label, dtype=np.float64)
        if support.ndim != 2 or support.shape[1] < 2:
            raise DomainError("support must be S x C with C >= 2")
        s, c = support.shape
        if weights.shape != (s,) or cond.shape != (s, c):
            raise DomainError("weights/cond_label shapes do not match support")
        # each test is written so that NaN fails it
        if not abs(weights.sum() - 1.0) <= EXACT_TOL:
            raise DomainError(f"weights sum to {weights.sum()!r}, not 1")
        if not np.all(weights > 0):
            raise DomainError("all weights must be positive")
        for name, rows in (("support", support), ("cond_label", cond)):
            if not (
                np.all(rows >= -EXACT_TOL)
                and np.all(np.abs(rows.sum(axis=1) - 1.0) <= EXACT_TOL)
            ):
                raise DomainError(f"{name} rows must be simplex points")
        pair = _first_close_pair(support)
        if pair:
            raise DomainError(f"support points {pair[0]} and {pair[1]} are not distinct")
        object.__setattr__(self, "support", _freeze(support))
        object.__setattr__(self, "weights", _freeze(weights))
        object.__setattr__(self, "cond_label", _freeze(cond))

    @property
    def S(self) -> int:
        return self.support.shape[0]

    @property
    def C(self) -> int:
        return self.support.shape[1]

    def to_json_dict(self) -> dict:
        return {
            "support": self.support.tolist(),
            "weights": self.weights.tolist(),
            "cond_label": self.cond_label.tolist(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "FiniteDistribution":
        try:
            parts = ("support", "weights", "cond_label")
            return cls(*(json_floats(name, d[name]) for name in parts))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed distribution JSON: {exc!r}") from exc


@dataclass(frozen=True)
class SplitResult:
    calibration: LabeledPredictions
    test: LabeledPredictions
    seed: int
    fraction: float


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`: extremes observed plus any repaired data.

    ``strict`` reports whether the data already satisfies the tight internal
    tolerances (row sums within 1e-6, entries >= -1e-9) rather than merely
    clearing the fatal thresholds.
    """

    n: int
    C: int
    max_row_sum_deviation: float
    min_entry: float
    strict: bool
    renormalized: bool
    corrected: LabeledPredictions | None

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "C": self.C,
            "max_row_sum_deviation": self.max_row_sum_deviation,
            "min_entry": self.min_entry,
            "strict": self.strict,
            "renormalized": self.renormalized,
        }


def simplex_extremes(probs: np.ndarray) -> tuple[float, float]:
    """Largest deviation of a row sum from 1 and smallest entry of an n x C
    matrix; 0 and inf when it has no rows."""
    deviation = np.abs(probs.sum(axis=1) - 1.0)
    return float(deviation.max(initial=0.0)), float(probs.min(initial=np.inf))


def check_simplex(max_dev: float, min_entry: float) -> None:
    """Raise :class:`ValidationError` when the :func:`simplex_extremes` of a
    matrix pass a fatal threshold: a row sum off by more than 1e-3 or an
    entry below -1e-6."""
    if max_dev > FATAL_ROW_SUM:
        raise ValidationError(
            f"row sum deviates from 1 by {max_dev:.3g} (> {FATAL_ROW_SUM:g})"
        )
    if min_entry < FATAL_ENTRY:
        raise ValidationError(f"entry {min_entry:.3g} below {FATAL_ENTRY:g}")


def validate(
    preds: LabeledPredictions, renormalize: bool = False
) -> ValidationReport:
    """Check the simplex tolerances, optionally repairing noisy rows.

    Raises :class:`ValidationError` when a row sum deviates from 1 by more
    than 1e-3 or an entry is below -1e-6 and ``renormalize`` is unset.
    Finite entries and labels in [0, C) need no check here:
    :class:`LabeledPredictions` holds them from construction on.
    With ``renormalize`` set, entries are clamped to [0, 1] and each row is
    divided by its sum; the corrected data is attached to the report.
    """
    probs, labels = preds.probs, preds.labels
    max_dev, min_entry = simplex_extremes(probs)
    if not renormalize:
        check_simplex(max_dev, min_entry)

    corrected = None
    if renormalize:
        fixed = np.clip(probs, 0.0, 1.0)
        sums = fixed.sum(axis=1)
        if np.any(sums <= 0):
            raise ValidationError("row with no positive mass cannot be renormalized")
        corrected = LabeledPredictions(fixed / sums[:, None], labels)

    return ValidationReport(
        n=preds.n,
        C=preds.C,
        max_row_sum_deviation=max_dev,
        min_entry=min_entry,
        strict=max_dev <= ROW_SUM_TOL and min_entry >= ENTRY_TOL,
        renormalized=renormalize,
        corrected=corrected,
    )


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent stream for (master seed, key...); scheduling-safe.
    ``derive_rng(s)`` draws what ``np.random.default_rng(s)`` draws.
    Raises :class:`DomainError` on a negative seed or key."""
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    if key and min(key) < 0:
        raise DomainError(f"keys must be >= 0, got {key}")
    return np.random.default_rng((int(seed),) + tuple(int(k) for k in key))


def split(preds: LabeledPredictions, fraction: float, seed: int) -> SplitResult:
    """Deterministic seeded Fisher-Yates split into calibration/test parts.

    Calibration size is ``round(fraction * n)``; the two index sets partition
    ``0..n-1``.  Re-running with the same seed reproduces the partition.
    """
    n = preds.n
    if not 0.0 < fraction < 1.0:
        raise DomainError(f"fraction must be in (0, 1), got {fraction}")
    if n < 2:
        raise DomainError("need n >= 2 to split")
    n_cal = int(round(fraction * n))
    if n_cal < 1 or n_cal > n - 1:
        raise DomainError(
            f"fraction {fraction} leaves an empty part for n={n}"
        )
    rng = derive_rng(seed)
    perm = rng.permutation(n)
    cal_idx = np.sort(perm[:n_cal])
    test_idx = np.sort(perm[n_cal:])
    return SplitResult(
        calibration=preds.take(cal_idx),
        test=preds.take(test_idx),
        seed=seed,
        fraction=fraction,
    )


def gen_two_point(n_per_group: int) -> LabeledPredictions:
    """Exact finite realization of the binned-blind-spot construction.

    Two prediction vectors, (0.45, 0.275, 0.275) and (0.55, 0.225, 0.225),
    interleaved A, B, A, B, ...  Exactly 5% of the first group and 95% of the
    second are labeled class 0 (the rest class 1), so group statistics are a
    counting identity, not a sample.  The three-bin equal-width top-class
    calibration error of this dataset is exactly 0 while its worst-interval
    top-class error is 0.2.
    """
    if n_per_group < 20 or n_per_group % 20 != 0:
        raise DomainError(
            "n_per_group must be >= 20 and divisible by 20 for exact 5%/95% counts"
        )
    k = n_per_group // 20
    row_a = np.array([0.45, 0.275, 0.275])
    row_b = np.array([0.55, 0.225, 0.225])
    labels_a = np.where(np.arange(n_per_group) < k, 0, 1)
    labels_b = np.where(np.arange(n_per_group) < 19 * k, 0, 1)
    probs = np.empty((2 * n_per_group, 3))
    labels = np.empty(2 * n_per_group, dtype=np.int64)
    probs[0::2] = row_a
    probs[1::2] = row_b
    labels[0::2] = labels_a
    labels[1::2] = labels_b
    return LabeledPredictions(probs, labels)


def two_point_distribution() -> FiniteDistribution:
    """The exact population behind :func:`gen_two_point`."""
    return FiniteDistribution(
        support=np.array([[0.45, 0.275, 0.275], [0.55, 0.225, 0.225]]),
        weights=np.array([0.5, 0.5]),
        cond_label=np.array([[0.05, 0.95, 0.0], [0.95, 0.05, 0.0]]),
    )


def _uniform_simplex(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    # Normalized unit-rate exponentials via inverse CDF of the uniform draw;
    # uniform on the simplex.
    u = rng.random(shape)
    e = -np.log1p(-u)
    return e / e.sum(axis=1, keepdims=True)


def _sample_labels(cond_rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    # Inverse-CDF categorical sampling, one row of probabilities per draw.
    cum = np.cumsum(cond_rows, axis=1)
    u = rng.random(cond_rows.shape[0])
    labels = np.sum(u[:, None] >= cum, axis=1)
    return np.minimum(labels, cond_rows.shape[1] - 1).astype(np.int64)


def gen_calibrated(
    n: int, C: int, support_size: int, seed: int
) -> tuple[LabeledPredictions, FiniteDistribution]:
    """Sample from a perfectly calibrated finite-support law.

    Support points are uniform on the simplex; the conditional label law at
    each point equals the point itself, so every population calibration
    quantity is exactly zero.  Returns the empirical sample together with the
    exact population object.
    """
    if support_size < 1:
        raise DomainError("support_size must be >= 1")
    if C < 2:
        raise DomainError("C must be >= 2")
    if n < 1:
        raise DomainError("n must be >= 1")
    rng = derive_rng(seed)
    support = _uniform_simplex(rng, (support_size, C))
    dist = FiniteDistribution(
        support=support,
        weights=np.full(support_size, 1.0 / support_size),
        cond_label=support.copy(),
    )
    s_idx = rng.integers(0, support_size, size=n)
    labels = _sample_labels(dist.cond_label[s_idx], rng)
    return LabeledPredictions(dist.support[s_idx], labels), dist


def gen_miscalibrated(
    spec: FiniteDistribution,
    n: int,
    seed: int,
) -> tuple[LabeledPredictions, FiniteDistribution]:
    """Sample n rows from an arbitrary finite-support law ``spec``, which is
    returned as the distribution.  Raises :class:`DomainError` unless
    ``spec`` is a :class:`FiniteDistribution`."""
    if not isinstance(spec, FiniteDistribution):
        raise DomainError(f"spec must be a FiniteDistribution, got {type(spec).__name__}")
    if n < 1:
        raise DomainError("n must be >= 1")
    rng = derive_rng(seed)
    cum_w = np.cumsum(spec.weights)
    s_idx = np.minimum(
        np.searchsorted(cum_w, rng.random(n), side="right"), spec.S - 1
    )
    labels = _sample_labels(spec.cond_label[s_idx], rng)
    return LabeledPredictions(spec.support[s_idx], labels), spec


# --- file formats ---------------------------------------------------------


# Bytes the distinct lines of a predictions file may hold in memory before
# the file is handed whole to ``np.loadtxt``: room for the rows of a
# finite-support law, a small share of a large file whose rows all differ.
DISTINCT_LINE_BUDGET = 256 * 1024
# What a distinct line holds beyond its str: its dict slot and its index
# (49 bytes a line in CPython 3.11, by tracemalloc, rounded up).
_DISTINCT_LINE_OVERHEAD = 64


def _loadtxt(source, header: bool, ndmin: int, dtype) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(
            source, delimiter=",", skiprows=1 if header else 0, ndmin=ndmin,
            dtype=dtype,
        )


def _load_csv(path: str, header: bool, ndmin: int, dtype) -> np.ndarray:
    """The rows of a comma-separated file; a file without data rows raises
    :class:`ParseError` (numpy's warning about it stays off stderr)."""
    try:
        arr = _loadtxt(path, header, ndmin, dtype)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if len(arr) == 0:
        raise ParseError(f"{path}: no data rows")
    return arr


def _load_distinct_rows(path, header: bool) -> np.ndarray | None:
    """The float matrix of a comma-separated file, each distinct line parsed
    once by ``np.loadtxt`` and gathered back into file order.

    None when the path is not a regular file (a pipe or FIFO can be read
    only once), when the distinct lines pass :data:`DISTINCT_LINE_BUDGET`,
    when the file cannot be opened, decoded or parsed, or when it has no
    lines or some line is not one row (a blank or comment line): the
    whole-file parse then gives the answer, and its error messages name
    file rows."""
    if not os.path.isfile(path):
        return None
    seen: dict[str, int] = {}
    order = array("q")
    held = 0
    try:
        # numpy's own opener (the private np.lib._datasource, which
        # np.loadtxt reads through), so the lines are the text np.loadtxt
        # would read: the same decompression, decoding and universal newlines
        with np.lib._datasource.open(os.fspath(path), "rt") as fh:
            if header:
                next(fh, None)
            for line in fh:
                at = seen.get(line)
                if at is None:
                    held += sys.getsizeof(line) + _DISTINCT_LINE_OVERHEAD
                    if held > DISTINCT_LINE_BUDGET:
                        return None
                    at = seen[line] = len(seen)
                order.append(at)
        if not seen:
            return None
        distinct = _loadtxt(list(seen), False, 2, np.float64)
    except (OSError, EOFError, ValueError):  # raised again, with file rows
        return None
    if len(distinct) != len(seen):
        return None
    return distinct[np.frombuffer(order, dtype=np.int64)]


def load_predictions_csv(path: str, header: bool = False) -> np.ndarray:
    """Read an n x C comma-separated float matrix.

    A line repeated in the file is parsed once; values and error messages
    are those of ``np.loadtxt`` on the whole file."""
    probs = _load_distinct_rows(path, header)
    return _load_csv(path, header, 2, np.float64) if probs is None else probs


def load_labels_csv(path: str, header: bool = False) -> np.ndarray:
    """Read n lines, one non-negative integer label each."""
    # an integer line costs less to parse than to hash: no distinct pass
    return _load_csv(path, header, 1, np.int64)


def write_predictions_csv(path: str, probs: np.ndarray) -> None:
    np.savetxt(path, np.atleast_2d(probs), delimiter=",", fmt="%.17g", newline="\n")


def write_labels_csv(path: str, labels: np.ndarray) -> None:
    np.savetxt(path, labels, fmt="%d", newline="\n")


def read_json(path: str):
    """The parsed contents of a JSON file; text that is not JSON (or not
    UTF-8) raises :class:`ParseError`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ParseError(f"{path}: {exc}") from exc


def write_json(path: str | None, payload) -> None:
    """``payload`` as UTF-8 JSON indented by 2, with a final newline; to
    stdout when ``path`` is None."""
    text = json.dumps(payload, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_distribution_json(path: str) -> FiniteDistribution:
    return FiniteDistribution.from_json_dict(read_json(path))


def write_distribution_json(path: str, dist: FiniteDistribution) -> None:
    write_json(path, dist.to_json_dict())
