"""Worst-interval calibration estimators, binned baselines, and exact
population-level checks.

The central routine is :func:`uc_hat`: the exact supremum, over closed
intervals of predicted utility, of the absolute mean gap between realized and
predicted utility.  After sorting by predicted utility and merging ties,
closed intervals correspond to contiguous blocks, so the supremum is the
spread of the residual prefix sums; that makes the estimator O(n log n) plus
the per-row utility evaluations.
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

# Every family's payoff vector uvec(p) takes one of three forms:
#   "column": uvec(p) = G[:, j*], j* = argmax_j (p @ G)_j (first on ties), for
#             a C x K matrix G; None stands for the C x C identity;
#   "rank":   uvec(p)_j = theta[rank of class j in p - 1], ranks under (-p_j, j);
#   "dense":  uvec(p) = p @ S.
# family -> (form, builder of G, theta or S from (spec, C))
_FORMS = {
    "top_class": ("column", lambda spec, C: None),
    "class_wise": ("column", lambda spec, C: np.eye(C, 1, -spec.c)),  # e_c
    "linear": ("column", lambda spec, C: spec.a[:, None]),
    "decision": ("column", lambda spec, C: -spec.loss),
    "gain_matrix": ("column", lambda spec, C: spec.gain),
    "top_k": ("rank", lambda spec, C: (np.arange(C) < spec.k).astype(np.float64)),
    "rank": ("rank", lambda spec, C: spec.theta),
    "dcg": ("rank", lambda spec, C: dcg_discounts(C, spec.gamma)),
    "similarity": ("dense", lambda spec, C: spec.sim),
}


def _payoff_form(spec: UtilitySpec, C: int) -> tuple[str, np.ndarray | None]:
    """(form, G | theta | S) of ``spec`` on C classes; see :data:`_FORMS`."""
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
    if form == "rank":
        return np.sort(probs, axis=1)[:, ::-1] @ param
    return np.einsum("ij,ij->i", probs, probs @ param)


def realized_utility(
    spec: UtilitySpec,
    probs: np.ndarray,
    labels: np.ndarray,
    ranks: np.ndarray | None = None,
) -> np.ndarray:
    """Realized payoff u(p_i, e_{label_i}) for every row.

    ``ranks`` may pass in ``_label_ranks(probs, labels)``, which the "rank"
    form reads, so a pool of such utilities computes it once.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n, C = probs.shape
    form, param = _payoff_form(spec, C)
    if form == "column":
        if param is None:
            return (labels == probs.argmax(axis=1)).astype(np.float64)
        if param.shape[1] == 1:  # 1-D indexing: a mixed index is twice as slow
            return param[:, 0][labels]
        return param[labels, (probs @ param).argmax(axis=1)]
    if form == "rank":
        if ranks is None:
            ranks = _label_ranks(probs, labels)
        return param[ranks - 1]
    return (probs @ param)[np.arange(n), labels]


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
    if form == "rank":  # theta[r - 1] goes to the class ranked r
        out = np.empty((n, C))
        order = np.argsort(-probs, axis=1, kind="stable")
        np.put_along_axis(out, order, np.broadcast_to(param, (n, C)), axis=1)
        return out
    return probs @ param


def residuals(
    preds: LabeledPredictions, spec: UtilitySpec
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (v_i, r_i): predicted utility and the gap
    r_i = u(p_i, e_{label_i}) - v_i."""
    v = predicted_utility(spec, preds.probs)
    return v, realized_utility(spec, preds.probs, preds.labels) - v


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


def _interval_spread(
    v_sorted_blocks: np.ndarray, block_sums: np.ndarray
) -> tuple[float, tuple[float, float], int]:
    """Spread of residual prefix sums over tie-merged blocks.

    Returns (spread, (lo, hi), sign) where [lo, hi] is the witness interval
    in v-space and sign the orientation.  Prefix extrema ties resolve to the
    earliest index; when every prefix is zero the supremum 0 is witnessed by
    a degenerate interval at the first block.  Raises :class:`DomainError`
    when the total is not finite: finite entries of huge magnitude (a row
    such as (1e308, -1e308) sums to 0) overflow the utilities or their sums.
    """
    prefix = np.concatenate(([0.0], np.cumsum(block_sums)))
    if not np.isfinite(prefix[-1]):
        raise DomainError("residuals are not finite: prediction entries overflow")
    b_max = int(np.argmax(prefix))
    b_min = int(np.argmin(prefix))
    spread = float(prefix[b_max] - prefix[b_min])
    if b_max == b_min:
        v0 = float(v_sorted_blocks[0])
        return 0.0, (v0, v0), 1
    if b_min < b_max:
        return (
            spread,
            (float(v_sorted_blocks[b_min]), float(v_sorted_blocks[b_max - 1])),
            1,
        )
    return (
        spread,
        (float(v_sorted_blocks[b_max]), float(v_sorted_blocks[b_min - 1])),
        -1,
    )


def _merge_ties(v: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort by v and merge exactly-equal v values into blocks of summed
    residuals.  A closed interval cannot separate equal v values, so blocks
    are the right granularity.  Residuals are ordered within each block so
    the block sums, hence the estimate, are bit-identical under any row
    permutation of the input."""
    order = np.lexsort((r, v))
    vs = v[order]
    rs = r[order]
    starts = np.flatnonzero(np.concatenate(([True], vs[1:] != vs[:-1])))
    return vs[starts], np.add.reduceat(rs, starts)


def _estimate(
    preds: LabeledPredictions, spec: UtilitySpec, ranks: np.ndarray | None
) -> UcEstimate:
    v = predicted_utility(spec, preds.probs)
    r = realized_utility(spec, preds.probs, preds.labels, ranks) - v
    block_v, block_sum = _merge_ties(v, r)
    spread, interval, sign = _interval_spread(block_v, block_sum)
    return UcEstimate(value=spread / preds.n, interval=interval, sign=sign)


def uc_hat(preds: LabeledPredictions, spec: UtilitySpec) -> UcEstimate:
    """Exact empirical worst-interval utility calibration error."""
    # Deliberately not a pool of one: with the pool's per-call bookkeeping the
    # two-thread ecdf sweep (n=50 000, C=10) peaked ~4 MB higher in most runs.
    return _estimate(preds, spec, None)


def uc_hat_pool(
    preds: LabeledPredictions, specs: Iterable[UtilitySpec]
) -> list[UcEstimate]:
    """:func:`uc_hat` of every utility in ``specs``, in order.

    Each distinct utility (by :meth:`UtilitySpec.key`) is evaluated once and
    its repeats share the estimate.  The true-class label ranks, which the
    realized utility of every top_k, rank and dcg member reads, are computed
    once per call.  Every estimate is bit-identical to a separate
    :func:`uc_hat` call.
    """
    ranks = None
    by_key: dict[tuple, UcEstimate] = {}
    out = []
    for spec in specs:
        key = spec.key()
        if key not in by_key:
            if ranks is None and _FORMS[spec.family][0] == "rank":
                ranks = _label_ranks(preds.probs, preds.labels)
            by_key[key] = _estimate(preds, spec, ranks)
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
        if self.kind == "equal-width":
            return np.linspace(0.0, 1.0, self.m + 1)
        s = np.sort(np.asarray(values, dtype=np.float64))
        n = len(s)
        positions = [-(-n * j // self.m) for j in range(1, self.m)]
        e = np.unique(
            np.concatenate(
                ([s[0]], s[np.array(positions, dtype=np.int64) - 1], [s[-1]])
            )
        )
        if len(e) == 1:  # all observations identical: one degenerate bin
            e = np.array([e[0], e[0]])
        return e


def _bin_indices(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(edges, values, side="right") - 1
    return np.clip(idx, 0, len(edges) - 2)


def _binned_gap_sums(
    idx: np.ndarray, values: np.ndarray, hits: np.ndarray, n_bins: int
) -> np.ndarray:
    """Per-bin sums of (value_i - hit_i) where hits are 0/1 indicators.

    Identical values inside a bin are aggregated as value * count and the hit
    total is an integer, so the result is bit-identical under row
    permutations and exact when a bin's masses cancel by counting (e.g. the
    two-point construction).
    """
    order = np.lexsort((values, idx))
    bi = idx[order]
    val = values[order]
    new_group = np.concatenate(
        ([True], (bi[1:] != bi[:-1]) | (val[1:] != val[:-1]))
    )
    starts = np.flatnonzero(new_group)
    counts = np.diff(np.concatenate((starts, [len(val)])))
    prod = val[starts] * counts
    group_bin = bi[starts]
    bin_starts = np.flatnonzero(
        np.concatenate(([True], group_bin[1:] != group_bin[:-1]))
    )
    out = np.zeros(n_bins)
    out[group_bin[bin_starts]] = np.add.reduceat(prod, bin_starts)
    out -= np.bincount(idx[hits], minlength=n_bins)
    return out


def tce_binned(preds: LabeledPredictions, scheme: BinScheme) -> float:
    """Binned top-class calibration error: per-bin absolute mean gap between
    top-class confidence and top-class correctness, summed over bins."""
    i_star = preds.probs.argmax(axis=1)
    p_star = preds.probs[np.arange(preds.n), i_star]
    y_star = preds.labels == i_star
    edges = scheme.edges(p_star)
    idx = _bin_indices(p_star, edges)
    terms = _binned_gap_sums(idx, p_star, y_star, len(edges) - 1)
    return float(np.abs(terms).sum() / preds.n)


def cwe_binned(
    preds: LabeledPredictions,
    scheme: BinScheme,
    weights: np.ndarray | None = None,
) -> float:
    """Binned class-wise calibration error with per-class edges.

    ``weights`` defaults to uniform 1/C; pass a simplex vector (e.g. the
    empirical class frequencies) for another weighting.
    """
    C = preds.C
    if weights is None:
        weights = np.full(C, 1.0 / C)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (C,) or np.any(weights < 0):
            raise DomainError("weights must be C non-negative reals")
        if abs(weights.sum() - 1.0) > 1e-9:
            raise DomainError(f"weights sum to {weights.sum()!r}, not 1")
    total = 0.0
    for c in range(C):
        f_c = preds.probs[:, c]
        edges = scheme.edges(f_c)
        idx = _bin_indices(f_c, edges)
        terms = _binned_gap_sums(idx, f_c, preds.labels == c, len(edges) - 1)
        total += weights[c] * np.abs(terms).sum() / preds.n
    return float(total)


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
    return float(np.mean(preds.probs.argmax(axis=1) == preds.labels))


# --- exact population quantities -------------------------------------------


def population_uc(dist: FiniteDistribution, spec: UtilitySpec) -> float:
    """Exact worst-interval utility calibration of a finite-support law.

    Each support point contributes expected residual
    <q_s - p_s, uvec(p_s)> * pi_s; the supremum over intervals is the same
    prefix-sum spread as in :func:`uc_hat`, with the weights already folded
    into the contributions.
    """
    v = predicted_utility(spec, dist.support)
    uvec = payoff_matrix(spec, dist.support)
    rho = np.einsum("ij,ij->i", dist.cond_label - dist.support, uvec) * dist.weights
    block_v, block_sum = _merge_ties(v, rho)
    spread, _, _ = _interval_spread(block_v, block_sum)
    return spread


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
    enumerated rules 1{v >= s} and 1{v > s} for s in the support v values and
    +-infinity.
    """
    if not -1.0 <= t0 <= 1.0:
        raise DomainError(f"t0 must be in [-1, 1], got {t0}")
    v = predicted_utility(spec, dist.support)
    uvec = payoff_matrix(spec, dist.support)
    ideal = uvec >= t0
    mass = dist.weights[:, None] * dist.cond_label
    penalty = np.abs(uvec - t0)

    def rule_risk(decide: np.ndarray) -> float:
        mismatch = decide[:, None] != ideal
        return float((mass * penalty * mismatch).sum())

    risk_v = rule_risk(v >= t0)
    candidates = [np.ones(dist.S, dtype=bool), np.zeros(dist.S, dtype=bool)]
    for s in np.unique(v):
        candidates.append(v >= s)
        candidates.append(v > s)
    risk_best = min(rule_risk(d) for d in candidates)
    uc = population_uc(dist, spec)
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

    Builds the width-sqrt(2*UC) binning of [-1, 1], the bin-conditional mean
    realized utility g_W, and verifies E|g_W - v| <= 2*sqrt(2*UC) + UC.
    """
    uc = population_uc(dist, spec)
    if uc <= 0.0:
        return DcuBoundResult(dcu_upper=0.0, bound=0.0, holds=True)
    v = predicted_utility(spec, dist.support)
    uvec = payoff_matrix(spec, dist.support)
    expected_u = np.einsum("ij,ij->i", dist.cond_label, uvec)

    width = np.sqrt(2.0 * uc)
    n_bins = int(np.ceil(2.0 / width))
    bin_of = np.clip(((v + 1.0) // width).astype(np.int64), 0, n_bins - 1)
    mass = np.bincount(bin_of, weights=dist.weights, minlength=n_bins)
    num = np.bincount(bin_of, weights=dist.weights * expected_u, minlength=n_bins)
    occupied = mass > 0
    g = np.zeros(n_bins)
    g[occupied] = num[occupied] / mass[occupied]
    dcu_upper = float(np.sum(dist.weights * np.abs(g[bin_of] - v)))
    bound = 2.0 * np.sqrt(2.0 * uc) + uc
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
    cwe_weights: np.ndarray | None = None,
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
        cwe_binned=cwe_binned(preds, scheme, cwe_weights),
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
    inject_fault: bool = False,
) -> tuple[float, list[int]]:
    """Run uc_hat against the brute-force oracle on random instances.

    Returns (max absolute difference, list of failing trial indices); a trial
    fails when the difference exceeds 1e-12.  ``inject_fault`` perturbs the
    first trial's estimate, for exercising the failure path.
    """
    max_diff = 0.0
    failures: list[int] = []
    for t in range(trials):
        rng = derive_rng(seed, t)
        preds, spec = random_instance(rng, n_max, c_max)
        got = uc_hat(preds, spec).value
        if inject_fault and t == 0:
            got += 1e-6
        want = uc_hat_oracle(preds, spec)
        diff = abs(got - want)
        max_diff = max(max_diff, diff)
        if diff > 1e-12:
            failures.append(t)
    return max_diff, failures
