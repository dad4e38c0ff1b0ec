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

import math
from dataclasses import asdict, dataclass, fields, replace
from typing import Sequence

import numpy as np

from .dataset import LabeledPredictions, check_simplex, read_json, simplex_extremes, write_json
from .errors import ConfigError, DomainError, ParseError
from .estimators import (
    GroupedSample,
    UcEstimate,
    _pool_estimates,
    _row_blocks,
    brier_matrix,
    distinct_rows,
    group_sample,
    payoff_matrix,
    predicted_utility,
)
from .utilities import (
    SAMPLERS, UtilitySpec, as_float, as_int, comb_pool, derive_rng, sample_utility
)

MAX_STEP = 2.0  # a record's largest step: the cap of fit's step min(err/D, 2)


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
        # NaN fails too; an infinite end would mask rows no fit observed
        if not -math.inf < self.lo <= self.hi < math.inf:
            raise DomainError(
                f"witness interval [{self.lo}, {self.hi}] needs finite lo <= hi"
            )
        if self.sign not in (-1, 1):
            raise DomainError(f"sign must be -1 or +1, got {self.sign}")
        if not 0.0 < self.step <= MAX_STEP:
            raise DomainError(f"step must be in (0, {MAX_STEP:g}], got {self.step}")

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
                lo=as_float("lo", d["lo"]),
                hi=as_float("hi", d["hi"]),
                sign=as_int("sign", d["sign"]),
                step=as_float("step", d["step"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed patch record: {exc!r}") from exc


@dataclass(frozen=True)
class HistoryEntry:
    """One fitted step: the witnessed error and Brier before and after; the
    step size is its record's.  Raises :class:`DomainError` unless err is
    finite and positive and both Brier values lie in [0, 2] with no
    increase, as every step :func:`fit` takes has them."""

    err: float
    brier_before: float
    brier_after: float

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
    wrote them: empty, or one entry per record (:class:`DomainError`
    otherwise).  In JSON each history entry also carries its record's step;
    :meth:`from_json_dict` raises :class:`DomainError` when the two differ
    and :class:`ParseError` on a missing or mistyped field."""

    records: tuple[PatchRecord, ...]
    C: int
    history: tuple[HistoryEntry, ...] = ()

    def __post_init__(self) -> None:
        if self.history and len(self.history) != len(self.records):
            raise DomainError(
                f"history has {len(self.history)} entries for "
                f"{len(self.records)} records"
            )

    def to_json_dict(self) -> dict:
        return {
            "C": self.C,
            "records": [r.to_json_dict() for r in self.records],
            "history": [
                {**asdict(h), "step": rec.step}
                for h, rec in zip(self.history, self.records)
            ],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "PatchSequence":
        try:
            records = tuple(PatchRecord.from_json_dict(r) for r in d["records"])
            C = as_int("C", d["C"])
            entries = d.get("history", [])
            steps = [as_float("step", h["step"]) for h in entries]
            history = tuple(
                HistoryEntry(*(as_float(f.name, h[f.name]) for f in fields(HistoryEntry)))
                for h in entries
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed patch sequence: {exc!r}") from exc
        seq = cls(records, C, history)
        for i, (step, rec) in enumerate(zip(steps, records)):
            if step != rec.step:
                raise DomainError(
                    f"history entry {i} has step {step}, its record {rec.step}"
                )
        return seq

    def save(self, path: str) -> None:
        write_json(path, self.to_json_dict())

    @classmethod
    def load(cls, path: str) -> "PatchSequence":
        return cls.from_json_dict(read_json(path))


def _worst_member(
    data: LabeledPredictions | GroupedSample, pool: Sequence[UtilitySpec]
) -> tuple[UtilitySpec, UcEstimate, np.ndarray]:
    """``(spec, estimate, v)`` of the pool member with the largest
    worst-interval error, the earliest pool index winning ties, from one
    :func:`_pool_estimates` pass; v is the member's predicted utility on the
    law's points."""
    if not pool:
        raise DomainError("witness pool is empty")
    first: dict[tuple, int] = {}
    for i, spec in enumerate(pool):
        first.setdefault(spec.key(), i)
    best = None
    for key, v, est in _pool_estimates(data, pool):
        i = first[key]
        if best is None or (est.value, -i) > (best[1].value, -best[0]):
            best = i, est, v
    i, est, v = best
    return pool[i], est, v


def find_worst_witness(
    data: LabeledPredictions | GroupedSample, pool: Sequence[UtilitySpec]
) -> tuple[UtilitySpec, UcEstimate]:
    """The pool member with the largest worst-interval error, and its
    estimate; the earliest index wins ties.

    The pool goes through one pass (:func:`_worst_member`), as in
    :func:`uc_hat_pool`: each distinct utility is evaluated once and the
    label ranks are shared by every rank-based utility.  The estimate's
    sign is that of the realized-minus-predicted residual; a patch step
    descends on predicted-minus-realized, so its record takes the opposite
    sign.
    """
    return _worst_member(data, pool)[:2]


def _apply_record_rows(
    points: np.ndarray, rec: PatchRecord, mask: np.ndarray, uvec: np.ndarray | None = None
) -> np.ndarray:
    """One masked corrective step, in place: the rows of ``mask`` move
    along -sign * uvec and are projected back onto the simplex; the other
    rows are untouched.  Returns ``points``.

    The masked rows move one block of :func:`_row_blocks` at a time: the
    block is gathered, takes its payoff vectors, steps, is projected and is
    written back, so the pass holds block-sized temporaries.  ``uvec``, when
    given, holds the masked rows' payoff vectors, and each block reads its
    slice.  Otherwise each block computes its own; the bits are those of one
    call over the whole mask, since the payoff forms are row-wise and the
    products are split by the same blocks.
    """
    rows = np.flatnonzero(mask)
    step = rec.step * rec.sign
    bounds = _row_blocks(len(rows))
    for lo, hi in zip(bounds, bounds[1:]):
        at = rows[lo:hi]
        block = points[at]
        block -= step * (payoff_matrix(rec.spec, block) if uvec is None else uvec[lo:hi])
        points[at] = project_simplex_rows(block)
    return points


def fit(
    cal: LabeledPredictions,
    *,
    pool: Sequence[UtilitySpec] | None = None,
    epsilon: float = 0.01,
    max_iters: int | None = None,
    augment_count: int = 0,
    augment_seed: int = 0,
) -> PatchSequence:
    """Run the patching loop on a calibration set.

    ``pool`` defaults to the class-wise + top-K pool of the calibration data;
    ``max_iters`` defaults to the termination bound ceil(2C/epsilon^2) + 1
    that the module docstring proves.  ``augment_count`` > 0 adds that many
    sampled utilities to the pool at each iteration t, their families taken
    in turn from :data:`utilcal.utilities.SAMPLERS` and utility j drawn from
    the stream (``augment_seed``, t, j).

    Stops once the worst pool error is at most epsilon or the iteration cap
    is hit.  Each applied iteration takes the quadratic-bound step
    min(err/D, MAX_STEP), with D the mean squared payoff norm over the
    witness's masked rows, and decreases the Brier score by at least
    step * err and at least err^2/C.  D > 0: a step is taken only when
    err > epsilon > 0, the witness interval's ends are observed v values so
    some row is masked, and a masked payoff entry reaches err/2 in size.
    The mask reads the witness's v from the pool pass that chose it, so a
    step evaluates no utility beyond that pass, and one mask and payoff
    pass serves both the step and the move.

    ``cal`` is grouped once (:func:`group_sample`).  Every step estimates,
    masks, sizes and moves its distinct points, which equal rows share, so
    equal rows stay equal; Brier is scored on the (point, label, count)
    pairs, bit for bit the n rows' score, so the rows are never gathered.
    D sums each masked point's squared payoff norm times its row count in
    ascending order, so it does not depend on the row order.  Raises
    :class:`ConfigError` when epsilon is not positive (NaN included),
    augment_count is negative, the iteration cap is below 1, or epsilon is
    so small that the default cap is not finite, and :class:`TypeError`
    when max_iters or augment_count is not an integer.
    """
    if not epsilon > 0:
        raise ConfigError(f"epsilon must be positive, got {epsilon}")
    if as_int("augment_count", augment_count) < 0:
        raise ConfigError(f"augment_count must be >= 0, got {augment_count}")
    C = cal.C
    base_pool = list(pool) if pool is not None else comb_pool(C)
    if max_iters is None:
        eps_sq = epsilon**2
        bound = 2.0 * C / eps_sq if eps_sq > 0 else math.inf
        if not math.isfinite(bound):
            raise ConfigError(
                f"epsilon {epsilon} leaves the iteration cap "
                "ceil(2C/epsilon^2) + 1 infinite; set max_iters (--max-iters)"
            )
        max_iters = math.ceil(bound) + 1
    elif as_int("max_iters", max_iters) < 1:
        raise ConfigError("max_iters must be >= 1")

    families = tuple(SAMPLERS)
    law = group_sample(cal)
    S = len(law.points)
    weight = np.ones(S) if law.row_of is None else np.bincount(law.row_of, law.counts, S)
    records: list[PatchRecord] = []
    history: list[HistoryEntry] = []
    briers = [brier_matrix(law.pair_points(), law.labels, law.counts)]

    for t in range(max_iters):
        pool_t = list(base_pool)
        for j in range(augment_count):
            fam = families[j % len(families)]
            pool_t.append(sample_utility(fam, C, derive_rng(augment_seed, t, j)))
        spec, est, v = _worst_member(law, pool_t)
        err = est.value
        if err <= epsilon:
            break
        lo, hi = est.interval
        hit = (v >= lo) & (v <= hi)  # distinct points: equal rows move alike
        uvec = payoff_matrix(spec, law.points[hit])
        w = weight[hit]
        D = float(np.sort(w * np.sum(uvec * uvec, axis=1)).sum() / w.sum())
        rec = PatchRecord(spec, lo, hi, -est.sign, min(err / D, MAX_STEP))
        # a fresh copy, so every step's law stays as its witness saw it
        law = replace(law, points=_apply_record_rows(law.points.copy(), rec, hit, uvec))
        briers.append(brier_matrix(law.pair_points(), law.labels, law.counts))
        records.append(rec)
        history.append(HistoryEntry(err, *briers[-2:]))  # Brier before and after

    return PatchSequence(records=tuple(records), C=C, history=tuple(history))


def transform(data, seq: PatchSequence):
    """Apply a fitted patch sequence to predictions.

    Accepts a LabeledPredictions (returns the same type) or a bare
    probability matrix (returns a matrix).  The rows are grouped once
    (:func:`distinct_rows`), every record moves the distinct rows in place,
    one row block at a time (:func:`_apply_record_rows`), and the result is
    gathered back to the input's rows, so equal rows stay equal
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
    points, inverse = distinct_rows(probs)  # its own rows or a new array
    del probs
    for rec in seq.records:
        v = predicted_utility(rec.spec, points)
        _apply_record_rows(points, rec, (v >= rec.lo) & (v <= rec.hi))
    return points if inverse is None else points[inverse]
