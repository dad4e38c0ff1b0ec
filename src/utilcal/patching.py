"""Iterative patching recalibration.

Each iteration finds the worst interval witness over a utility pool and
nudges every prediction whose predicted utility falls in that interval
against the witnessed violation, then projects back onto the simplex.

The step is the quadratic-bound step eta = min(err/D, 2), with D the mean
squared payoff norm over the masked rows.  Before projection (which only
adds to the decrease) it changes Brier by -2 eta err + eta^2 (m/n) D for m
masked rows of n, so it lowers Brier by at least eta * err: twice the
sufficient decrease an Armijo search with constant 1/2 asks for (Armijo,
Pacific J. Math. 1966), so no search is needed.  Since D <= C, the decrease
is also at least err^2/C, which both guarantees termination within
ceil(2C/epsilon^2) + 1 steps and makes the recalibration safe: it can only
improve the proper score.

The fitted result is a serializable list of (utility, interval, sign, step)
records; because each record is a function of the prediction vector alone,
the map transfers to unseen predictions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .dataset import LabeledPredictions, check_simplex, read_json, simplex_extremes
from .errors import ConfigError, DomainError, ParseError
from .estimators import (
    GroupedSample,
    UcEstimate,
    brier_matrix,
    distinct_rows,
    group_sample,
    payoff_matrix,
    predicted_utility,
    uc_hat_pool,
)
from .utilities import SAMPLERS, UtilitySpec, as_int, comb_pool, derive_rng, sample_utility


def project_simplex_rows(X: np.ndarray) -> np.ndarray:
    """Row-wise simplex projection."""
    X = np.asarray(X, dtype=np.float64)
    u = -np.sort(-X, axis=1)
    css = np.cumsum(u, axis=1)
    ks = np.arange(1, X.shape[1] + 1)
    k = np.count_nonzero(u - (css - 1.0) / ks > 0.0, axis=1)
    rows = np.arange(X.shape[0])
    tau = (css[rows, k - 1] - 1.0) / k
    return np.maximum(X - tau[:, None], 0.0)


@dataclass(frozen=True)
class PatchRecord:
    spec: UtilitySpec
    lo: float
    hi: float
    sign: int
    step: float

    def __post_init__(self) -> None:
        if not self.lo <= self.hi:  # NaN fails too
            raise DomainError(f"witness interval [{self.lo}, {self.hi}] needs lo <= hi")
        if self.sign not in (-1, 1):
            raise DomainError(f"sign must be -1 or +1, got {self.sign}")
        if not 0.0 < self.step <= 2.0:
            raise DomainError(f"step must be in (0, 2], got {self.step}")

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec.to_json_dict(),
            "lo": self.lo,
            "hi": self.hi,
            "sign": self.sign,
            "step": self.step,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "PatchRecord":
        try:
            return cls(
                spec=UtilitySpec.from_json_dict(d["spec"]),
                lo=float(d["lo"]),
                hi=float(d["hi"]),
                sign=as_int("sign", d["sign"]),
                step=float(d["step"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed patch record: {exc!r}") from exc


@dataclass(frozen=True)
class HistoryEntry:
    """One fitted step: the witnessed error, Brier before and after, and the
    step size.  Raises :class:`DomainError` unless err is finite and
    positive and both Brier values lie in [0, 2] with no increase, as every
    step :func:`fit` takes has them."""

    err: float
    brier_before: float
    brier_after: float
    step: float

    def __post_init__(self) -> None:
        if not 0.0 < self.err < math.inf:  # NaN fails too
            raise DomainError(f"history err must be finite and positive: {self.err}")
        if not 0.0 <= self.brier_after <= self.brier_before <= 2.0:
            raise DomainError(
                "history Brier values need 0 <= after <= before <= 2, got "
                f"before {self.brier_before}, after {self.brier_after}"
            )


@dataclass(frozen=True)
class PatchSequence:
    """Fitted patch records and, optionally, the history of the fit that
    wrote them: empty, or one entry per record with the record's step
    (:class:`DomainError` otherwise)."""

    records: tuple[PatchRecord, ...]
    C: int
    history: tuple[HistoryEntry, ...] = ()

    def __post_init__(self) -> None:
        if self.history and len(self.history) != len(self.records):
            raise DomainError(
                f"history has {len(self.history)} entries for "
                f"{len(self.records)} records"
            )
        for i, (h, rec) in enumerate(zip(self.history, self.records)):
            if h.step != rec.step:
                raise DomainError(
                    f"history entry {i} has step {h.step}, its record {rec.step}"
                )

    def to_json_dict(self) -> dict:
        return {
            "C": self.C,
            "records": [r.to_json_dict() for r in self.records],
            "history": [
                {
                    "err": h.err,
                    "brier_before": h.brier_before,
                    "brier_after": h.brier_after,
                    "step": h.step,
                }
                for h in self.history
            ],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "PatchSequence":
        try:
            return cls(
                records=tuple(
                    PatchRecord.from_json_dict(r) for r in d["records"]
                ),
                C=as_int("C", d["C"]),
                history=tuple(
                    HistoryEntry(
                        err=float(h["err"]),
                        brier_before=float(h["brier_before"]),
                        brier_after=float(h["brier_after"]),
                        step=float(h["step"]),
                    )
                    for h in d.get("history", [])
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed patch sequence: {exc!r}") from exc

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "PatchSequence":
        return cls.from_json_dict(read_json(path))


@dataclass
class PatchConfig:
    """Recalibration hyperparameters.

    ``pool`` defaults to the class-wise + top-K pool of the calibration data;
    ``max_iters`` defaults to the termination bound ceil(2C/epsilon^2) + 1
    that the module docstring proves.  ``augment_count`` > 0 adds that many
    sampled utilities to the pool at each iteration t, their families taken
    in turn from :data:`utilcal.utilities.SAMPLERS` and utility j drawn from
    the stream (``augment_seed``, t, j); 0 leaves the pool as it is.
    """

    pool: Sequence[UtilitySpec] | None = None
    epsilon: float = 0.01
    max_iters: int | None = None
    augment_count: int = 0
    augment_seed: int = 0


def find_worst_witness(
    data: LabeledPredictions | GroupedSample, pool: Sequence[UtilitySpec]
) -> tuple[UtilitySpec, UcEstimate]:
    """The pool member with the largest worst-interval error, and its
    estimate; the earliest index wins ties.

    The pool goes through one :func:`uc_hat_pool` call: each distinct utility
    is evaluated once and the label ranks are shared by every rank-based
    utility.  The estimate's sign is that of the realized-minus-predicted
    residual; a patch step descends on predicted-minus-realized, so its
    record takes the opposite sign.
    """
    if not pool:
        raise DomainError("witness pool is empty")
    estimates = uc_hat_pool(data, pool)
    best = max(range(len(pool)), key=lambda i: estimates[i].value)  # first max
    return pool[best], estimates[best]


def _masked_payoff(
    points: np.ndarray, spec: UtilitySpec, lo: float, hi: float
) -> tuple[np.ndarray, np.ndarray]:
    """Mask of the points whose predicted utility lies in [lo, hi], and the
    payoff vectors of those points.

    The points are distinct rows, in the order :func:`uc_hat_pool` computes
    v in, so the mask agrees with the estimator's blocks and equal rows get
    the same move.
    """
    v = predicted_utility(spec, points)
    hit = (v >= lo) & (v <= hi)
    return hit, payoff_matrix(spec, points[hit])


def _apply_record_rows(
    probs: np.ndarray, rec: PatchRecord, mask: np.ndarray, uvec: np.ndarray
) -> np.ndarray:
    """One masked corrective step on every row: the rows of ``mask`` move
    along -sign * uvec, their payoff vectors from :func:`_masked_payoff`, and
    are projected back onto the simplex; the other rows pass through
    untouched."""
    if not len(uvec):
        return probs
    # project first, so its temporaries are freed before the n x C copy
    moved = project_simplex_rows(probs[mask] - rec.step * rec.sign * uvec)
    out = probs.copy()
    out[mask] = moved
    return out


def fit(cal: LabeledPredictions, config: PatchConfig) -> PatchSequence:
    """Run the patching loop on a calibration set.

    Stops once the worst pool error is at most epsilon or the iteration cap
    is hit.  Each applied iteration takes the quadratic-bound step
    min(err/D, 2), with D the mean squared payoff norm over the witness's
    masked rows, and decreases the Brier score by at least step * err and at
    least err^2/C.  D > 0: a step is taken only when err > epsilon > 0, the
    witness interval's ends are observed v values so some row is masked, and
    a masked payoff entry reaches err/2 in size.  The cap 2 is the step range
    of :class:`PatchRecord`.  One mask and payoff pass serves both the step
    and the move.

    ``cal`` is grouped once (:func:`group_sample`).  Every step estimates,
    masks, sizes and moves its distinct points, which equal rows share, so
    equal rows stay equal; the n rows are gathered only for the Brier
    scores.  D sums each masked point's squared payoff norm times its row
    count in ascending order, so it does not depend on the row order.
    Raises :class:`ConfigError` when epsilon is not positive (NaN included),
    augment_count is negative, the iteration cap is below 1, or epsilon is
    so small that the default cap is not finite.
    """
    if not config.epsilon > 0:
        raise ConfigError(f"epsilon must be positive, got {config.epsilon}")
    if config.augment_count < 0:
        raise ConfigError(f"augment_count must be >= 0, got {config.augment_count}")
    C = cal.C
    base_pool = list(config.pool) if config.pool is not None else comb_pool(C)
    for spec in base_pool:
        spec.check_dim(C)
    max_iters = config.max_iters
    if max_iters is None:
        eps_sq = config.epsilon**2
        bound = 2.0 * C / eps_sq if eps_sq > 0 else math.inf
        if not math.isfinite(bound):
            raise ConfigError(
                f"epsilon {config.epsilon} leaves the iteration cap "
                "ceil(2C/epsilon^2) + 1 infinite; set max_iters (--max-iters)"
            )
        max_iters = math.ceil(bound) + 1
    if max_iters < 1:
        raise ConfigError("max_iters must be >= 1")

    families = tuple(SAMPLERS)
    law = group_sample(cal)
    labels = cal.labels
    weight = (
        np.ones(len(law.points))
        if law.inverse is None
        else np.bincount(law.inverse).astype(np.float64)
    )
    records: list[PatchRecord] = []
    history: list[HistoryEntry] = []
    brier_before = brier_matrix(law.rows(), labels)

    for t in range(max_iters):
        pool_t = list(base_pool)
        for j in range(config.augment_count):
            fam = families[j % len(families)]
            pool_t.append(sample_utility(fam, C, derive_rng(config.augment_seed, t, j)))
        spec, est = find_worst_witness(law, pool_t)
        err = est.value
        if err <= config.epsilon:
            break
        lo, hi = est.interval
        hit, uvec = _masked_payoff(law.points, spec, lo, hi)
        w = weight[hit]
        D = float(np.sort(w * np.sum(uvec * uvec, axis=1)).sum() / w.sum())
        rec = PatchRecord(spec, lo, hi, -est.sign, min(err / D, 2.0))
        law = replace(law, points=_apply_record_rows(law.points, rec, hit, uvec))
        brier_after = brier_matrix(law.rows(), labels)
        records.append(rec)
        history.append(HistoryEntry(err, brier_before, brier_after, rec.step))
        brier_before = brier_after

    return PatchSequence(records=tuple(records), C=C, history=tuple(history))


def transform(data, seq: PatchSequence):
    """Apply a fitted patch sequence to predictions.

    Accepts a LabeledPredictions (returns the same type) or a bare
    probability matrix (returns a matrix).  The rows are grouped once
    (:func:`distinct_rows`), every record moves the distinct rows, and the
    result is gathered back to the input's rows, so equal rows stay equal
    and the output follows any row permutation of the input.  Rows stay on
    the simplex because every step re-projects.  Raises
    :class:`DomainError` when an entry is NaN or infinite, and
    :class:`ValidationError` when a row fails
    :func:`utilcal.dataset.validate`'s fatal thresholds.
    """
    if isinstance(data, LabeledPredictions):
        out = transform(data.probs, seq)
        return LabeledPredictions(out, data.labels)
    probs = np.array(data, dtype=np.float64, copy=True)
    if probs.ndim != 2 or probs.shape[1] != seq.C:
        raise DomainError(
            f"expected an n x {seq.C} matrix, got shape {probs.shape}"
        )
    max_dev, min_entry = simplex_extremes(probs)
    if not np.isfinite(max_dev):
        raise DomainError("predictions hold NaN or infinite entries")
    check_simplex(max_dev, min_entry)
    points, inverse = distinct_rows(probs)
    del probs
    for rec in seq.records:
        hit, uvec = _masked_payoff(points, rec.spec, rec.lo, rec.hi)
        points = _apply_record_rows(points, rec, hit, uvec)
    return points if inverse is None else points[inverse]
