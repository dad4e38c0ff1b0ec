"""Worst-interval calibration estimators, binned baselines, and exact
population-level checks.

The central routine is :func:`uc_hat`: the exact supremum, over closed
intervals of predicted utility, of the absolute mean gap between realized and
predicted utility.  After sorting by predicted utility and merging ties,
closed intervals correspond to contiguous blocks, so the supremum is the
spread of the residual prefix sums; that makes the estimator O(n log n) plus
the per-row utility evaluations.  A sample with repeated rows is evaluated
once per distinct row, as a finite-support law (:func:`group_sample`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .dataset import FiniteDistribution, LabeledPredictions
from .errors import DomainError, GuardError
from .utilities import (
    UtilitySpec,
    comb_pool,
    dcg_discounts,
    derive_rng,
    gain_matrix_aligned,
    sample_decision,
    sample_linear,
    sample_rank,
)

# --- vectorized utility evaluation ----------------------------------------

# Every family's payoff vector uvec(p) takes one of four forms:
#   "column": uvec(p) = G[:, j*], j* = argmax_j (p @ G)_j (first on ties), for
#             a C x K matrix G; None stands for the C x C identity;
#   "unit":   uvec(p) = e_c, so v = p_c: the one-column form with G = e_c,
#             read as column c of p instead of computed as p @ e_c;
#   "rank":   uvec(p)_j = theta[rank of class j in p - 1], ranks under (-p_j, j);
#   "dense":  uvec(p) = p @ S.
# family -> (form, builder of G, c, theta or S from (spec, C))
_FORMS = {
    "top_class": ("column", lambda spec, C: None),
    "class_wise": ("unit", lambda spec, C: spec.c),
    "linear": ("column", lambda spec, C: spec.a[:, None]),
    "decision": ("column", lambda spec, C: -spec.loss),
    "gain_matrix": ("column", lambda spec, C: spec.gain),
    "top_k": ("rank", lambda spec, C: (np.arange(C) < spec.k).astype(np.float64)),
    "rank": ("rank", lambda spec, C: spec.theta),
    "dcg": ("rank", lambda spec, C: dcg_discounts(C, spec.gamma)),
    "similarity": ("dense", lambda spec, C: spec.sim),
}


def _payoff_form(spec: UtilitySpec, C: int) -> tuple[str, np.ndarray | int | None]:
    """(form, G | c | theta | S) of ``spec`` on C classes; see :data:`_FORMS`."""
    spec.check_dim(C)
    form, build = _FORMS[spec.family]
    return form, build(spec, C)


def _label_ranks(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """1-based rank of each row's true class under (-p_j, j) ordering,
    without sorting whole rows."""
    n, C = probs.shape
    p_label = probs[np.arange(n), labels]
    greater = (probs > p_label[:, None]).sum(axis=1)
    cols = np.arange(C)
    tied_before = ((probs == p_label[:, None]) & (cols < labels[:, None])).sum(axis=1)
    return greater + tied_before + 1


def predicted_utility(spec: UtilitySpec, probs: np.ndarray) -> np.ndarray:
    """Predicted utility v_u for every row of ``probs``."""
    probs = np.asarray(probs, dtype=np.float64)
    n, C = probs.shape
    form, param = _payoff_form(spec, C)
    if spec.family == "top_k":  # a partial sort instead of the full row sort
        if spec.k == C:
            return probs.sum(axis=1)
        return np.partition(probs, C - spec.k, axis=1)[:, C - spec.k :].sum(axis=1)
    if form == "column":
        if param is None:
            return probs.max(axis=1)
        if param.shape[1] == 1:
            return probs @ param[:, 0]
        return (probs @ param).max(axis=1)
    if form == "unit":  # + 0.0 reads a -0.0 entry as 0.0, as p @ e_c does
        return probs[:, param] + 0.0
    if form == "rank":
        return np.sort(probs, axis=1)[:, ::-1] @ param
    return np.einsum("ij,ij->i", probs, probs @ param)


def realized_utility(
    spec: UtilitySpec,
    probs: np.ndarray,
    labels: np.ndarray,
    ranks: np.ndarray | None = None,
    row_of: np.ndarray | None = None,
) -> np.ndarray:
    """Realized payoff u(p_i, e_{label_i}) for every row.

    ``row_of``, when given, pairs label i with row ``row_of[i]`` of
    ``probs`` instead of row i, so a row's argmax or payoff vector is
    computed once however many labels it is paired with.  ``ranks`` may
    pass in the label ranks of those pairs (``_label_ranks(probs, labels)``
    without ``row_of``), which the "rank" form reads, so a pool of such
    utilities computes them once.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    form, param = _payoff_form(spec, probs.shape[1])
    at = slice(None) if row_of is None else row_of
    if form == "column":
        if param is None:
            return (labels == probs.argmax(axis=1)[at]).astype(np.float64)
        if param.shape[1] == 1:  # 1-D indexing: a mixed index is twice as slow
            return param[:, 0][labels]
        return param[labels, (probs @ param).argmax(axis=1)[at]]
    if form == "unit":
        return (labels == param).astype(np.float64)
    if form == "rank":
        if ranks is None:
            ranks = _label_ranks(probs[at], labels)
        return param[ranks - 1]
    if row_of is None:
        row_of = np.arange(len(labels))
    return (probs @ param)[row_of, labels]


def payoff_matrix(spec: UtilitySpec, probs: np.ndarray) -> np.ndarray:
    """Full n x C payoff vectors uvec(p_i); used by population computations
    and patch updates (it materializes n x C, so large-n callers restrict to
    the rows they need)."""
    probs = np.asarray(probs, dtype=np.float64)
    n, C = probs.shape
    form, param = _payoff_form(spec, C)
    if form == "column":
        if param is None:
            out = np.zeros((n, C))
            out[np.arange(n), probs.argmax(axis=1)] = 1.0
            return out
        if param.shape[1] == 1:
            return np.broadcast_to(param[:, 0], (n, C)).copy()
        return param[:, (probs @ param).argmax(axis=1)].T
    if form == "unit":
        out = np.zeros((n, C))
        out[:, param] = 1.0
        return out
    if form == "rank":  # theta[r - 1] goes to the class ranked r
        out = np.empty((n, C))
        order = np.argsort(-probs, axis=1, kind="stable")
        np.put_along_axis(out, order, np.broadcast_to(param, (n, C)), axis=1)
        return out
    return probs @ param


# --- distinct rows ------------------------------------------------------------

# Rows per block in the exact check of equal hashes: its gathers stay near
# 512 kB whatever n is.
_BLOCK_ELEMENTS = 1 << 16


def _row_hashes(bits: np.ndarray) -> np.ndarray:
    """A 64-bit hash of each row's bit patterns: sum_j bits_ij * m_j mod 2^64
    with odd m_j, so rows that differ in one entry never collide.  Integer
    sums wrap exactly in any order, so equal rows hash alike wherever they
    sit."""
    C = bits.shape[1]
    mult = np.arange(1, 2 * C, 2, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    return np.einsum("ij,j->i", bits, mult)


def distinct_rows(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The distinct rows of ``probs`` and the index of each row among them.

    Rows are equal when their bit patterns are, so rows that differ only
    in the sign of a zero stay apart.  Returns ``(probs, None)``, without a
    copy, when every row is distinct; the cheap exact test is that one
    column's values are all distinct.  Otherwise returns ``(D, inverse)``
    with ``probs[i]`` bit-identical to ``D[inverse[i]]``.  D's order
    depends only on the set of rows, never on their order in ``probs``:
    rows are ordered by a hash of their bits, equal hashes are confirmed
    by exact comparison, and on a collision between different rows the
    order is that of ``np.unique`` over the bit patterns.
    """
    probs = np.ascontiguousarray(probs, dtype=np.float64)
    n, C = probs.shape
    col = np.sort(probs[:, 0])
    if (col[1:] != col[:-1]).all():
        return probs, None
    del col
    bits = probs.view(np.uint64)
    h = _row_hashes(bits)
    hs = np.sort(h)
    fresh = hs[1:] != hs[:-1]
    del hs
    if fresh.all():
        return probs, None
    order = np.argsort(h)
    del h
    group = np.cumsum(np.concatenate(([False], fresh)))  # per sorted position
    first = order[np.flatnonzero(np.concatenate(([True], fresh)))]
    del fresh
    block = max(1, _BLOCK_ELEMENTS // C)
    for lo in range(0, n, block):  # each row against its hash group's first
        rows = order[lo : lo + block]
        reps = first[group[lo : lo + block]]
        dup = rows != reps
        if not (bits[rows[dup]] == bits[reps[dup]]).all():
            uniq, inverse = np.unique(bits, axis=0, return_inverse=True)
            if len(uniq) == n:
                return probs, None
            return uniq.view(np.float64), inverse.reshape(-1)
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = group
    return probs[first], inverse


def residuals(
    preds: LabeledPredictions, spec: UtilitySpec
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (v_i, r_i): predicted utility and the gap
    r_i = u(p_i, e_{label_i}) - v_i.

    v and the payoff vector are computed once per distinct row
    (:func:`distinct_rows`), so equal rows get equal v: a matrix product
    can give a row different last bits depending on its position.
    """
    points, inverse = distinct_rows(preds.probs)
    v = predicted_utility(spec, points)
    u = realized_utility(spec, points, preds.labels, row_of=inverse)
    if inverse is not None:
        v = v[inverse]
    return v, u - v


# --- the worst-interval estimator ------------------------------------------


@dataclass(frozen=True)
class UcEstimate:
    """Worst-interval calibration value with its witness.

    ``value`` is the supremum of |mean residual restricted to a closed
    interval of v|; ``interval`` reports observed v endpoints of a maximizing
    interval; ``sign`` is xi in {-1, +1} with xi * (mean residual over the
    interval) = value.
    """

    value: float
    interval: tuple[float, float]
    sign: int


def _merge_ties(v: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort by v and merge exactly-equal v values into blocks of summed
    residuals.  A closed interval cannot separate equal v values, so blocks
    are the right granularity.

    The block values and sums are bit-identical under any row permutation
    of the input.  Distinct v values admit one sorted order, so without
    ties each row is its own block.  With ties, each block sums its
    residuals in ascending order.  Equal residual values are interchangeable
    addends, and a run of +-0 sums to -0.0 only if every term is -0.0, so
    any order among equal residuals gives the same bits.  That is why an
    unstable sort of r, then a stable (radix, for up to 65 535 blocks) sort
    of the block ids, is enough.  A block that mixes -0.0 and 0.0 in v
    reports -0.0 when any of its rows holds -0.0, else 0.0.
    """
    order = np.argsort(v)
    vs = v[order]
    fresh = vs[1:] != vs[:-1]
    if fresh.all():
        return vs, r[order]
    starts = np.flatnonzero(np.concatenate(([True], fresh)))
    block_v = vs[starts]
    zero = np.flatnonzero(block_v == 0)
    if zero.size:
        b = zero[0]
        end = starts[b + 1] if b + 1 < starts.size else vs.size
        block_v[b] = -0.0 if np.signbit(vs[starts[b] : end]).any() else 0.0
    del vs
    ids = np.empty(v.size, dtype=np.min_scalar_type(starts.size - 1))
    ids[order[0]] = 0
    ids[order[1:]] = np.cumsum(fresh, dtype=ids.dtype)
    del order, fresh
    order = np.argsort(r)
    keys = ids[order]
    del ids
    order = order[np.argsort(keys, kind="stable")]
    del keys
    return block_v, np.add.reduceat(r[order], starts)


def _worst_interval(
    v: np.ndarray, r: np.ndarray
) -> tuple[float, tuple[float, float], int]:
    """Worst interval of per-row contributions ``r`` over values ``v``.

    Returns (spread, (lo, hi), sign): the spread of the prefix sums of the
    tie-merged blocks, the witness interval in v-space and its orientation.
    Prefix extrema ties resolve to the earliest index; when every prefix is
    zero the supremum 0 is witnessed by a degenerate interval at the first
    block.
    """
    block_v, block_sums = _merge_ties(v, r)
    prefix = np.concatenate(([0.0], np.cumsum(block_sums)))
    b_max = int(np.argmax(prefix))
    b_min = int(np.argmin(prefix))
    spread = float(prefix[b_max] - prefix[b_min])
    if b_max == b_min:
        v0 = float(block_v[0])
        return 0.0, (v0, v0), 1
    if b_min < b_max:
        return spread, (float(block_v[b_min]), float(block_v[b_max - 1])), 1
    return spread, (float(block_v[b_max]), float(block_v[b_min - 1])), -1


def uc_hat(preds: LabeledPredictions, spec: UtilitySpec) -> UcEstimate:
    """Exact empirical worst-interval utility calibration error: the
    :func:`uc_hat_pool` of the one utility."""
    return uc_hat_pool(preds, [spec])[0]


@dataclass(frozen=True)
class GroupedSample:
    """A labelled sample as its finite-support law, built by
    :func:`group_sample`.

    ``points`` holds the distinct rows (:func:`distinct_rows`) and
    ``inverse`` the index of each of the n rows among them; when every row
    is distinct, ``points`` is the sample's own matrix and ``inverse``,
    ``row_of`` and ``counts`` are None, so each row is its own pair.
    Otherwise the sample is one (point, label) pair per distinct
    combination: pair i joins point ``row_of[i]`` with label ``labels[i]``
    and stands for ``counts[i]`` rows.  A step that moves every point keeps
    the pairs, so :func:`dataclasses.replace` with new ``points`` gives the
    law of the moved sample.
    """

    points: np.ndarray
    inverse: np.ndarray | None
    row_of: np.ndarray | None
    labels: np.ndarray
    counts: np.ndarray | None
    n: int

    def rows(self) -> np.ndarray:
        """The n rows of the sample, gathered from the points."""
        return self.points if self.inverse is None else self.points[self.inverse]


def group_sample(preds: LabeledPredictions) -> GroupedSample:
    """The distinct rows of ``preds`` and its (point, label, count) pairs."""
    points, inverse = distinct_rows(preds.probs)
    if inverse is None:
        return GroupedSample(points, None, None, preds.labels, None, preds.n)
    C = preds.C
    keys = inverse * C  # one (row, label) key row * C + label per row
    keys += preds.labels
    pairs, counts = np.unique(keys, return_counts=True)
    del keys
    row_of, labels = np.divmod(pairs, C)
    return GroupedSample(
        points, inverse, row_of, labels, counts.astype(np.float64), preds.n
    )


def uc_hat_pool(
    data: LabeledPredictions | GroupedSample, specs: Iterable[UtilitySpec]
) -> list[UcEstimate]:
    """Worst-interval error of every utility in ``specs``, in order.

    A sample with repeated rows is evaluated as its finite-support law
    (:func:`group_sample`; a :class:`LabeledPredictions` is grouped once per
    call): each utility's v and payoff are computed once per distinct row s,
    and :func:`_worst_interval` gets one contribution per distinct row,
    rho_s = sum_y N[s, y] (uvec_s[y] - v_s) = sum_y N[s, y] uvec_s[y] -
    count_s v_s, with N[s, y] the number of rows equal to s labelled y, as
    :func:`population_uc` feeds it.  Each (s, y) residual is rounded as the
    per-row path rounds it, so the value is within rounding (about 1e-16)
    of the per-row sum, and bit-identical under row permutations.  When
    every row is distinct each row is its own contribution u_i - v_i.

    Each distinct utility (by :meth:`UtilitySpec.key`) is evaluated once and
    its repeats share the estimate.  The true-class label ranks, which the
    realized utility of every top_k, rank and dcg member reads, are computed
    once per call.  An estimate does not depend on the rest of the pool, so
    it is bit-identical to :func:`uc_hat` of its utility alone.
    """
    law = data if isinstance(data, GroupedSample) else group_sample(data)
    probs, row_of, labels = law.points, law.row_of, law.labels
    ranks = None
    by_key: dict[tuple, UcEstimate] = {}
    out = []
    for spec in specs:
        key = spec.key()
        if key not in by_key:
            if ranks is None and _FORMS[spec.family][0] == "rank":
                pair_probs = probs if row_of is None else probs[row_of]
                ranks = _label_ranks(pair_probs, labels)
            v = predicted_utility(spec, probs)
            r = realized_utility(spec, probs, labels, ranks, row_of)
            if row_of is None:
                r -= v
            else:
                r -= v[row_of]
                r = np.bincount(row_of, weights=law.counts * r, minlength=len(probs))
            spread, interval, sign = _worst_interval(v, r)
            by_key[key] = UcEstimate(spread / law.n, interval, sign)
        out.append(by_key[key])
    return out


def uc_hat_oracle(preds: LabeledPredictions, spec: UtilitySpec) -> float:
    """Brute-force interval enumeration; the independent check for
    :func:`uc_hat`.  Enumerates every closed interval between distinct
    observed v values (plus the empty interval) and takes the max absolute
    normalized residual sum."""
    if preds.n > 10000:
        raise GuardError(f"oracle guard: n={preds.n} exceeds 10000")
    v, r = residuals(preds, spec)
    vals, inverse = np.unique(v, return_inverse=True)
    group = np.bincount(inverse, weights=r)
    best = 0.0
    for start in range(len(vals)):
        running = np.cumsum(group[start:])
        best = max(best, float(np.max(np.abs(running))))
    return best / preds.n


# --- binned baselines -------------------------------------------------------


@dataclass(frozen=True)
class BinScheme:
    """Binning request: equal-width bins span [0, 1] (the confidence scale);
    equal-weight edges sit at sorted-data positions ceil(n*j/m), duplicates
    merged, last bin right-closed."""

    kind: str = "equal-weight"
    m: int = 15

    def __post_init__(self) -> None:
        if self.kind not in ("equal-weight", "equal-width"):
            raise DomainError(f"unknown bin kind {self.kind!r}")
        if self.m < 1:
            raise DomainError("need at least one bin")

    def edges(self, values: np.ndarray) -> np.ndarray:
        return self._sorted_edges(np.sort(np.asarray(values, dtype=np.float64)))

    def _sorted_edges(self, s: np.ndarray) -> np.ndarray:
        """:meth:`edges` of the values ``s``, already in ascending order."""
        if self.kind == "equal-width":
            return np.linspace(0.0, 1.0, self.m + 1)
        n = len(s)
        # for m > n the positions ceil(n*j/m) run through every index, as
        # they do (with the last value) for m = n
        m = min(self.m, n)
        positions = -(-n * np.arange(1, m, dtype=np.int64) // m)
        e = np.unique(np.concatenate(([s[0]], s[positions - 1], [s[-1]])))
        if len(e) == 1:  # all observations identical: one degenerate bin
            e = np.array([e[0], e[0]])
        return e


def _binned_error(
    preds: LabeledPredictions, spec: UtilitySpec, scheme: BinScheme
) -> float:
    """Unnormalized binned calibration error of a utility: the sum over bins
    of predicted utility of |sum_{i in bin} (v_i - u_i)|.

    Bins are intervals of v, so after one sort of (v, u) each bin is a run
    of rows.  Identical v values are aggregated as v * count and, for the
    0/1 utilities, the realized total is an integer, so the result is
    bit-identical under row permutations and exact when a bin's masses cancel
    by counting (e.g. the two-point construction).
    """
    v = predicted_utility(spec, preds.probs)
    u = realized_utility(spec, preds.probs, preds.labels)
    order = np.argsort(v)
    vs, us = v[order], u[order]
    edges = scheme._sorted_edges(vs)
    n_bins = len(edges) - 1
    starts = np.flatnonzero(np.concatenate(([True], vs[1:] != vs[:-1])))
    group_bin = np.searchsorted(edges, vs[starts], side="right") - 1
    group_bin = np.clip(group_bin, 0, n_bins - 1)  # each distinct v once
    bin_starts = np.flatnonzero(
        np.concatenate(([True], group_bin[1:] != group_bin[:-1]))
    )
    counts = np.diff(np.append(starts, len(vs)))
    gaps = np.zeros(n_bins)
    gaps[group_bin[bin_starts]] = np.add.reduceat(
        vs[starts] * counts, bin_starts
    ) - np.add.reduceat(us, starts[bin_starts])
    return float(np.abs(gaps).sum())


def tce_binned(preds: LabeledPredictions, scheme: BinScheme) -> float:
    """Binned top-class calibration error: the binned calibration error of
    the top_class utility (top-class confidence against correctness)."""
    return _binned_error(preds, UtilitySpec.top_class(), scheme) / preds.n


def cwe_binned(preds: LabeledPredictions, scheme: BinScheme) -> float:
    """Binned class-wise calibration error: the mean over classes c of the
    binned calibration error of the class_wise(c) utility, each class with
    its own edges."""
    total = 0.0
    for c in range(preds.C):
        total += (
            (1.0 / preds.C)
            * _binned_error(preds, UtilitySpec.class_wise(c), scheme)
            / preds.n
        )
    return total


def brier_matrix(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean squared distance between one-hot labels and predictions.

    Per-row terms are summed in sorted order so the score is bit-identical
    under row permutations.
    """
    diff = probs.copy()
    diff[np.arange(len(labels)), labels] -= 1.0
    per_row = np.sort(np.sum(diff * diff, axis=1))
    return float(per_row.sum() / len(labels))


def brier(preds: LabeledPredictions) -> float:
    return brier_matrix(preds.probs, preds.labels)


def accuracy(preds: LabeledPredictions) -> float:
    """Mean realized top_class utility."""
    u = realized_utility(UtilitySpec.top_class(), preds.probs, preds.labels)
    return float(np.mean(u))


# --- exact population quantities -------------------------------------------


def _population_pass(
    dist: FiniteDistribution, spec: UtilitySpec
) -> tuple[np.ndarray, np.ndarray, float]:
    """(v, payoff vectors, UC) of ``spec`` on the support of ``dist``: the one
    utility pass that :func:`population_uc` and the decision checks share."""
    v = predicted_utility(spec, dist.support)
    uvec = payoff_matrix(spec, dist.support)
    rho = np.einsum("ij,ij->i", dist.cond_label - dist.support, uvec) * dist.weights
    return v, uvec, _worst_interval(v, rho)[0]


def population_uc(dist: FiniteDistribution, spec: UtilitySpec) -> float:
    """Exact worst-interval utility calibration of a finite-support law.

    Each support point contributes expected residual
    <q_s - p_s, uvec(p_s)> * pi_s; the supremum over intervals is the same
    prefix-sum spread as in :func:`uc_hat`, with the weights already folded
    into the contributions.
    """
    return _population_pass(dist, spec)[2]


@dataclass(frozen=True)
class RiskGapResult:
    risk_v: float
    risk_best_monotone: float
    uc: float
    holds: bool


def risk_gap_check(
    dist: FiniteDistribution, spec: UtilitySpec, t0: float
) -> RiskGapResult:
    """Exact check that thresholding predicted utility at t0 is within
    2 * UC of the best monotone post-processing.

    The risk uses the deviation loss |u_Y - t0| charged when the committed
    binary action disagrees with the ideal action 1{u_Y >= t0}.  On a finite
    support, monotone post-processing composed with the t0 threshold is
    exactly a threshold rule in v, so the infimum is a minimum over the
    rules 1{v >= s} for s in the support v values and the rule that commits
    nowhere: 1{v > s} is 1{v >= s'} for the next value s' (or commits
    nowhere), and committing everywhere is 1{v >= min v}.
    """
    if not -1.0 <= t0 <= 1.0:
        raise DomainError(f"t0 must be in [-1, 1], got {t0}")
    v, uvec, uc = _population_pass(dist, spec)
    ideal = uvec >= t0
    cost = dist.weights[:, None] * dist.cond_label * np.abs(uvec - t0)

    def rule_risk(decide: np.ndarray) -> float:
        return float((cost * (decide[:, None] != ideal)).sum())

    risk_v = rule_risk(v >= t0)
    rules = [v >= s for s in np.unique(v)] + [np.zeros(dist.S, dtype=bool)]
    risk_best = min(rule_risk(d) for d in rules)
    return RiskGapResult(
        risk_v=risk_v,
        risk_best_monotone=risk_best,
        uc=uc,
        holds=risk_v - risk_best <= 2.0 * uc + 1e-12,
    )


@dataclass(frozen=True)
class DcuBoundResult:
    dcu_upper: float
    bound: float
    holds: bool


def dcu_bound_check(dist: FiniteDistribution, spec: UtilitySpec) -> DcuBoundResult:
    """Exact check of the distance-to-calibrated-utility-predictor bound.

    Bins [-1, 1] at width sqrt(2*UC), takes the bin-conditional mean
    realized utility g_W, and verifies E|g_W - v| <= 2*sqrt(2*UC) + UC.
    Only the bins that hold a support point are built, whatever the width.
    """
    v, uvec, uc = _population_pass(dist, spec)
    if uc <= 0.0:
        return DcuBoundResult(dcu_upper=0.0, bound=0.0, holds=True)
    expected_u = np.einsum("ij,ij->i", dist.cond_label, uvec)

    width = float(np.sqrt(2.0 * uc))
    # bin indices as floats: cast to an integer type, they overflow for tiny widths
    cell = np.clip((v + 1.0) // width, 0.0, np.ceil(2.0 / width) - 1.0)
    bin_of = np.unique(cell, return_inverse=True)[1]
    w = dist.weights  # per-bin sums add in support order
    g = np.bincount(bin_of, w * expected_u) / np.bincount(bin_of, w)
    dcu_upper = float(np.sum(w * np.abs(g[bin_of] - v)))
    bound = 2.0 * width + uc  # Python floats, as in the uc <= 0 branch
    return DcuBoundResult(
        dcu_upper=dcu_upper, bound=bound, holds=dcu_upper <= bound + 1e-12
    )


# --- aggregated reporting ---------------------------------------------------


@dataclass(frozen=True)
class MetricReport:
    accuracy: float
    brier: float
    tce_binned: float
    cwe_binned: float
    uc_per_utility: dict[str, UcEstimate] = field(default_factory=dict)
    uc_comb: float = 0.0

    def to_json_dict(self) -> dict:
        out = {
            "accuracy": self.accuracy,
            "brier": self.brier,
            "tce_binned": self.tce_binned,
            "cwe_binned": self.cwe_binned,
        }
        if self.uc_per_utility:
            out["uc"] = {
                name: {
                    "value": est.value,
                    "lo": est.interval[0],
                    "hi": est.interval[1],
                    "sign": est.sign,
                }
                for name, est in self.uc_per_utility.items()
            }
        out["uc_comb"] = self.uc_comb
        return out


def evaluate_metrics(
    preds: LabeledPredictions,
    scheme: BinScheme = BinScheme(),
    utilities: Sequence[tuple[str, UtilitySpec]] = (),
) -> MetricReport:
    """Accuracy, Brier, binned baselines, per-utility worst-interval errors,
    and the max over the class-wise + top-K pool.

    The requested utilities and the pool go through one :func:`uc_hat_pool`
    call, so each distinct utility is evaluated once per call (a requested
    ``class_wise``/``top_k`` member of the pool included) and the label
    ranks are shared by every rank-based utility.
    """
    utilities = list(utilities)
    estimates = uc_hat_pool(
        preds, [spec for _, spec in utilities] + comb_pool(preds.C)
    )
    uc_map = {name: est for (name, _), est in zip(utilities, estimates)}
    uc_comb = max(est.value for est in estimates[len(utilities) :])
    return MetricReport(
        accuracy=accuracy(preds),
        brier=brier(preds),
        tce_binned=tce_binned(preds, scheme),
        cwe_binned=cwe_binned(preds, scheme),
        uc_per_utility=uc_map,
        uc_comb=uc_comb,
    )


# --- randomized estimator-vs-oracle equivalence -----------------------------


def random_instance(
    rng: np.random.Generator, n_max: int = 200, c_max: int = 8
) -> tuple[LabeledPredictions, UtilitySpec]:
    """A random dataset and a random utility from any family, for
    estimator-vs-oracle trials."""
    n = int(rng.integers(1, n_max + 1))
    C = int(rng.integers(2, c_max + 1))
    u = rng.random((n, C))
    e = -np.log1p(-u)
    probs = e / e.sum(axis=1, keepdims=True)
    labels = rng.integers(0, C, size=n)
    preds = LabeledPredictions(probs, labels)

    fam = rng.integers(9)
    if fam == 0:
        spec = UtilitySpec.top_class()
    elif fam == 1:
        spec = UtilitySpec.class_wise(int(rng.integers(C)))
    elif fam == 2:
        spec = UtilitySpec.top_k(int(rng.integers(1, C + 1)))
    elif fam == 3:
        spec = sample_rank(C, rng)
    elif fam == 4:
        spec = sample_linear(C, rng)
    elif fam == 5:
        spec = UtilitySpec.dcg(float(rng.uniform(0.5, 2.0)))
    elif fam == 6:
        spec = sample_decision(C, int(rng.integers(2, 5)), rng)
    elif fam == 7:
        spec = gain_matrix_aligned(C, rng)
    else:
        sim = rng.uniform(-1.0, 1.0, size=(C, C))
        sim = (sim + sim.T) / 2.0
        np.fill_diagonal(sim, 1.0)
        spec = UtilitySpec.similarity(sim)
    return preds, spec


def oracle_trials(
    trials: int,
    n_max: int = 200,
    c_max: int = 8,
    seed: int = 0,
) -> tuple[float, list[int]]:
    """Run uc_hat against the brute-force oracle on random instances.

    Returns (max absolute difference, list of failing trial indices); a trial
    fails when the difference exceeds 1e-12.  Raises :class:`DomainError`
    unless trials >= 1, n_max >= 1 and c_max >= 2.
    """
    if trials < 1 or n_max < 1 or c_max < 2:
        raise DomainError(
            f"need trials >= 1, n_max >= 1 and c_max >= 2, got {trials}, {n_max}, {c_max}"
        )
    max_diff = 0.0
    failures: list[int] = []
    for t in range(trials):
        rng = derive_rng(seed, t)
        preds, spec = random_instance(rng, n_max, c_max)
        got = uc_hat(preds, spec).value
        want = uc_hat_oracle(preds, spec)
        diff = abs(got - want)
        max_diff = max(max_diff, diff)
        if diff > 1e-12:
            failures.append(t)
    return max_diff, failures
