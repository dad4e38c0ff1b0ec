"""Iterative patching recalibration.

Each iteration finds the worst interval witness over a utility pool and
nudges every prediction whose predicted utility falls in that interval
against the witnessed violation, then projects back onto the simplex.  With
the theoretical step err/C the Brier score drops by at least err^2/C per
iteration, which both guarantees termination and makes the recalibration
safe: it can only improve the proper score.

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

from .dataset import LabeledPredictions
from .errors import ConfigError, DomainError, ParseError
from .estimators import brier_matrix, payoff_matrix, predicted_utility, uc_hat_pool
from .utilities import UtilitySpec, comb_pool, derive_rng, sample_utility

# Armijo backtracking: shrink factor, sufficient-decrease constant, and the
# number of halvings tried before falling back to the theoretical step.
ARMIJO_SHRINK = 0.5
ARMIJO_C = 0.5
ARMIJO_MAX_BACKTRACKS = 30

# Families of the sampled utilities that augment the pool, taken in turn.
AUGMENT_FAMILIES = ("linear", "rank")


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
        if self.lo > self.hi:
            raise DomainError("witness interval has lo > hi")
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
                sign=int(d["sign"]),
                step=float(d["step"]),
            )
        except KeyError as exc:
            raise ParseError(f"patch record missing key {exc}") from exc


@dataclass(frozen=True)
class HistoryEntry:
    err: float
    brier_before: float
    brier_after: float
    step: float


@dataclass(frozen=True)
class PatchSequence:
    records: tuple[PatchRecord, ...]
    C: int
    history: tuple[HistoryEntry, ...] = ()

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
                C=int(d["C"]),
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
        except KeyError as exc:
            raise ParseError(f"patch sequence missing key {exc}") from exc

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "PatchSequence":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                d = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}: {exc}") from exc
        return cls.from_json_dict(d)


@dataclass
class PatchConfig:
    """Recalibration hyperparameters.

    ``pool`` defaults to the class-wise + top-K pool of the calibration data;
    ``max_iters`` defaults to the theoretical-step termination bound
    ceil(2C/epsilon^2) + 1.  The Armijo rule is the standard halving search
    (:data:`ARMIJO_SHRINK`, :data:`ARMIJO_C`, :data:`ARMIJO_MAX_BACKTRACKS`);
    its initial step optimizes the quadratic Brier upper bound on the masked
    rows and the search falls back to err/C when backtracking fails.
    ``augment_count`` > 0 adds that many sampled utilities to the pool at
    each iteration t, their families taken in turn from
    :data:`AUGMENT_FAMILIES` and utility j drawn from the stream
    (``augment_seed``, t, j); 0 leaves the pool as it is.
    """

    pool: Sequence[UtilitySpec] | None = None
    epsilon: float = 0.01
    max_iters: int | None = None
    step_rule: str = "theoretical"
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


def _apply_record_rows(probs: np.ndarray, rec: PatchRecord) -> np.ndarray:
    """One masked corrective step on every row; rows outside the witness
    interval pass through untouched."""
    v = predicted_utility(rec.spec, probs)
    mask = (v >= rec.lo) & (v <= rec.hi)
    if not np.any(mask):
        return probs
    out = probs.copy()
    uvec = payoff_matrix(rec.spec, probs[mask])
    out[mask] = project_simplex_rows(probs[mask] - rec.step * rec.sign * uvec)
    return out


def _choose_armijo_step(
    probs: np.ndarray,
    labels: np.ndarray,
    witness: Witness,
    err: float,
    before: float,
) -> tuple[float, np.ndarray]:
    """Backtracking halving search on the Brier score, which is ``before``
    at ``probs``.

    Accept eta once the Brier decrease reaches c * eta * err; start from the
    minimizer of the quadratic upper bound on the masked rows.
    """
    C = probs.shape[1]
    v = predicted_utility(witness.spec, probs)
    mask = (v >= witness.lo) & (v <= witness.hi)
    fallback = err / C
    denom = 0.0
    if np.any(mask):
        uvec = payoff_matrix(witness.spec, probs[mask])
        denom = float(np.mean(np.sum(uvec * uvec, axis=1)))
    eta = err / denom if denom > 1e-300 else fallback
    eta = min(eta, 2.0)  # PatchRecord caps steps at the Brier range

    for _ in range(ARMIJO_MAX_BACKTRACKS):
        candidate = _apply_record_rows(
            probs, PatchRecord(witness.spec, witness.lo, witness.hi, witness.sign, eta)
        )
        if before - brier_matrix(candidate, labels) >= ARMIJO_C * eta * err:
            return eta, candidate
        eta *= ARMIJO_SHRINK
    candidate = _apply_record_rows(
        probs, PatchRecord(witness.spec, witness.lo, witness.hi, witness.sign, fallback)
    )
    return fallback, candidate


def fit(cal: LabeledPredictions, config: PatchConfig) -> PatchSequence:
    """Run the patching loop on a calibration set.

    Stops once the worst pool error is at most epsilon or the iteration cap
    is hit.  The Brier score never increases; with theoretical steps each
    applied iteration decreases it by at least err^2/C.
    """
    if config.epsilon <= 0:
        raise ConfigError(f"epsilon must be positive, got {config.epsilon}")
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
    if config.step_rule not in ("theoretical", "armijo"):
        raise ConfigError(f"unknown step rule {config.step_rule!r}")

    probs = cal.probs.copy()
    labels = cal.labels
    records: list[PatchRecord] = []
    history: list[HistoryEntry] = []
    brier_before = brier_matrix(probs, labels)

    for t in range(max_iters):
        pool_t = list(base_pool)
        for j in range(config.augment_count):
            fam = AUGMENT_FAMILIES[j % len(AUGMENT_FAMILIES)]
            pool_t.append(sample_utility(fam, C, derive_rng(config.augment_seed, t, j)))
        preds_t = LabeledPredictions(probs, labels)
        witness, err = find_worst_witness(preds_t, pool_t)
        if err <= config.epsilon:
            break
        if config.step_rule == "theoretical":
            step = err / C
            new_probs = _apply_record_rows(
                probs,
                PatchRecord(witness.spec, witness.lo, witness.hi, witness.sign, step),
            )
        else:
            step, new_probs = _choose_armijo_step(
                probs, labels, witness, err, brier_before
            )
        brier_after = brier_matrix(new_probs, labels)
        records.append(
            PatchRecord(witness.spec, witness.lo, witness.hi, witness.sign, step)
        )
        history.append(HistoryEntry(err, brier_before, brier_after, step))
        probs, brier_before = new_probs, brier_after

    return PatchSequence(records=tuple(records), C=C, history=tuple(history))


def transform(data, seq: PatchSequence):
    """Apply a fitted patch sequence to predictions.

    Accepts a LabeledPredictions (returns the same type) or a bare
    probability matrix (returns a matrix).  Rows stay on the simplex because
    every step re-projects.  Raises :class:`DomainError` when an entry is
    NaN or infinite.
    """
    if isinstance(data, LabeledPredictions):
        out = transform(data.probs, seq)
        return LabeledPredictions(out, data.labels)
    probs = np.array(data, dtype=np.float64, copy=True)
    if probs.ndim != 2 or probs.shape[1] != seq.C:
        raise DomainError(
            f"expected an n x {seq.C} matrix, got shape {probs.shape}"
        )
    if not np.all(np.isfinite(probs.sum(axis=1))):
        raise DomainError("predictions hold NaN or infinite entries")
    for rec in seq.records:
        probs = _apply_record_rows(probs, rec)
    return probs
