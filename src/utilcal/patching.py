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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import LabeledPredictions, check_simplex, read_json, simplex_extremes
from .errors import ConfigError, DomainError, ParseError
from .estimators import (
    brier_matrix,
    distinct_rows,
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
class Witness:
    """A worst-interval violation: utility, closed interval in v-space, and
    the direction sign.  ``sign`` is the witness orientation xi such that the
    violated quantity is the mean of xi * <p - e_label, uvec(p)> over masked
    rows; the corrective update moves along -xi * uvec."""

    spec: UtilitySpec
    lo: float
    hi: float
    sign: int


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
    preds: LabeledPredictions, pool: Sequence[UtilitySpec]
) -> tuple[Witness, float]:
    """Largest worst-interval error across the pool; earliest index wins ties.

    The pool goes through one :func:`uc_hat_pool` call: each distinct utility
    is evaluated once and the label ranks are shared by every rank-based
    utility.  The returned sign is the negation of the estimator's residual
    sign: the estimator measures realized-minus-predicted, the patch
    direction descends on predicted-minus-realized.
    """
    if not pool:
        raise DomainError("witness pool is empty")
    estimates = uc_hat_pool(preds, pool)
    best = max(range(len(pool)), key=lambda i: estimates[i].value)  # first max
    best_est = estimates[best]
    witness = Witness(
        spec=pool[best],
        lo=best_est.interval[0],
        hi=best_est.interval[1],
        sign=-best_est.sign,
    )
    return witness, best_est.value


def _masked_payoff(
    probs: np.ndarray, rec: Witness | PatchRecord
) -> tuple[np.ndarray, np.ndarray]:
    """Mask of the rows whose predicted utility lies in [lo, hi], and the
    payoff vectors of those rows.

    Both are computed once per distinct row (:func:`distinct_rows`), with
    the v values :func:`uc_hat_pool` computes, so equal rows get the same
    mask and the same move and stay equal.
    """
    rows, inverse = distinct_rows(probs)
    v = predicted_utility(rec.spec, rows)
    hit = (v >= rec.lo) & (v <= rec.hi)
    uvec = payoff_matrix(rec.spec, rows[hit])
    if inverse is None:
        return hit, uvec
    mask = hit[inverse]
    return mask, uvec[np.cumsum(hit)[inverse[mask]] - 1]


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
    Raises :class:`ConfigError` when epsilon is not positive (NaN included),
    augment_count is negative or the iteration cap is below 1.
    """
    if not config.epsilon > 0:
        raise ConfigError(f"epsilon must be positive, got {config.epsilon}")
    if config.augment_count < 0:
        raise ConfigError(f"augment_count must be >= 0, got {config.augment_count}")
    C = cal.C
    base_pool = list(config.pool) if config.pool is not None else comb_pool(C)
    for spec in base_pool:
        spec.check_dim(C)
    max_iters = (
        config.max_iters
        if config.max_iters is not None
        else math.ceil(2.0 * C / config.epsilon**2) + 1
    )
    if max_iters < 1:
        raise ConfigError("max_iters must be >= 1")

    families = tuple(SAMPLERS)
    probs = cal.probs.copy()
    labels = cal.labels
    records: list[PatchRecord] = []
    history: list[HistoryEntry] = []
    brier_before = brier_matrix(probs, labels)

    for t in range(max_iters):
        pool_t = list(base_pool)
        for j in range(config.augment_count):
            fam = families[j % len(families)]
            pool_t.append(sample_utility(fam, C, derive_rng(config.augment_seed, t, j)))
        preds_t = LabeledPredictions(probs, labels)
        witness, err = find_worst_witness(preds_t, pool_t)
        if err <= config.epsilon:
            break
        mask, uvec = _masked_payoff(probs, witness)
        step = min(err / float(np.mean(np.sum(uvec * uvec, axis=1))), 2.0)
        rec = PatchRecord(witness.spec, witness.lo, witness.hi, witness.sign, step)
        probs = _apply_record_rows(probs, rec, mask, uvec)
        brier_after = brier_matrix(probs, labels)
        records.append(rec)
        history.append(HistoryEntry(err, brier_before, brier_after, step))
        brier_before = brier_after

    return PatchSequence(records=tuple(records), C=C, history=tuple(history))


def transform(data, seq: PatchSequence):
    """Apply a fitted patch sequence to predictions.

    Accepts a LabeledPredictions (returns the same type) or a bare
    probability matrix (returns a matrix).  Rows stay on the simplex because
    every step re-projects.  Raises :class:`DomainError` when an entry is
    NaN or infinite, and :class:`ValidationError` when a row fails
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
    for rec in seq.records:
        probs = _apply_record_rows(probs, rec, *_masked_payoff(probs, rec))
    return probs
