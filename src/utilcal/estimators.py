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
from typing import Iterable, Iterator, Sequence

import numpy as np

from .dataset import FiniteDistribution, LabeledPredictions, _uniform_simplex
from .errors import DomainError, GuardError
from .utilities import (
    UtilitySpec,
    as_int,
    comb_pool,
    dcg_discounts,
    derive_rng,
    gain_matrix_aligned,
    sample_decision,
    sample_linear,
    sample_rank,
)

# --- vectorized utility evaluation ----------------------------------------

# Every family's payoff vector uvec(p) takes one of five forms:
#   "column": uvec(p) = G[:, j*], j* = argmax_j (p @ G)_j (first on ties), for
#             a C x K matrix G;
#   "max":    uvec(p) = e_j*, j* = argmax_j p_j (first on ties), so v = max_j p_j:
#             top_class, the "column" form with G the C x C identity, read
#             from the rows instead of computed as a product;
#   "unit":   uvec(p) = e_c, so v = p_c: the one-column form with G = e_c,
#             read as column c of p instead of computed as p @ e_c;
#   "rank":   uvec(p)_j = theta[rank of class j in p - 1], ranks under (-p_j, j),
#             so v = sort(p, descending) @ theta; top_k's theta is 1{r <= k};
#   "dense":  uvec(p) = p @ S.
# Only _member_payoffs and payoff_matrix branch on the form.  The "column"
# form's matrices, the "rank" form's thetas and payoff_matrix's S go through
# the tiled product of _column_products, the thetas on sorted row blocks: a
# pool reads each row block once per tile of members, and a lone member pays
# a whole tile.
# family -> (form, builder of G, c, theta or S from (spec, C))
_FORMS = {
    "top_class": ("max", lambda spec, C: None),
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


# Each matrix product in _column_products multiplies at most _ROW_BLOCK rows
# by exactly _TILE columns: a wider tile costs a lone member more work, a
# narrower one costs a pool more calls per row block.
_ROW_BLOCK = 4096
_TILE = 32
# A chunk of a pool's stacked products holds at most one tile of members and
# at most this many values (32 MiB of float64), so a pool of any size holds
# little v at once.
_CHUNK_ELEMENTS = 1 << 22


def _row_blocks(n: int) -> list[int]:
    """Bounds of the fewest blocks of at most _ROW_BLOCK rows that cover n
    rows, as even as possible, so no block is a lone row unless n is 1;
    ``[0]``, no block, when n is 0."""
    blocks = -(-n // _ROW_BLOCK)
    return [n * b // blocks for b in range(blocks + 1)] if n else [0]


def _row_argmax(probs: np.ndarray) -> np.ndarray:
    """The first argmax of each row, one row block at a time: numpy copies
    a read-only matrix whole before its argmax, so a block is all it
    copies."""
    best = np.empty(len(probs), dtype=np.intp)
    bounds = _row_blocks(len(probs))
    for lo, hi in zip(bounds, bounds[1:]):
        best[lo:hi] = probs[lo:hi].argmax(axis=1)
    return best


def _label_ranks(
    probs: np.ndarray, labels: np.ndarray, row_of: np.ndarray | None = None
) -> np.ndarray:
    """1-based rank of each label's class under (-p_j, j) ordering in its
    row, label i's row being ``probs[i]``, or ``probs[row_of[i]]`` when
    ``row_of`` is given, without sorting whole rows; one block of labels at
    a time, so the gathered rows and the comparisons take block-sized
    temporaries."""
    C = probs.shape[1]
    cols = np.arange(C)
    bounds = _row_blocks(len(labels))
    ranks = np.empty(len(labels), dtype=np.int64)
    for lo, hi in zip(bounds, bounds[1:]):
        block = probs[lo:hi] if row_of is None else probs[row_of[lo:hi]]
        y = labels[lo:hi, None]
        p_label = np.take_along_axis(block, y, axis=1)
        ranks[lo:hi] = (block > p_label).sum(axis=1)
        ranks[lo:hi] += ((block == p_label) & (cols < y)).sum(axis=1)
    ranks += 1
    return ranks


def _column_products(
    probs: np.ndarray, G: np.ndarray, sort_rows: bool = False
) -> np.ndarray:
    """The K columns of ``probs @ G`` as the rows of a K x n array, so each
    column is contiguous.

    Every matrix product is one block of at most _ROW_BLOCK rows times
    exactly _TILE columns of G, the last tile padded with zero columns.
    OpenBLAS picks its kernel, and with it the rounding, from the shape of
    a call: a product with 2, 4 or 24 columns can give a column different
    last bits.  With one shape per row block, a column's bits do not depend
    on which other columns share its product or where it sits among them,
    so a pool member gets the bits it gets alone.  A row's bits may still
    depend on the block it falls in.  The blocks are as even as possible
    (:func:`_row_blocks`), so no block is a lone row, which numpy would
    send to its matrix-vector path.  Every product is written into one
    reused block-by-tile buffer, so a pass allocates no temporary per call.

    With ``sort_rows`` each row block is first sorted ascending into one
    reused buffer and G's rows are taken in reverse, so column k is
    ``sort(p, descending) @ G[:, k]``: the "rank" form's v, one sort per
    block for every tile.  The terms of zero entries of G are exact zeros,
    so top_k(1)'s column is exactly the row maximum.
    """
    n = len(probs)
    C, K = G.shape
    padded = np.zeros((C, -(-K // _TILE) * _TILE))
    padded[:, :K] = G[::-1] if sort_rows else G
    # contiguous tiles, so every call passes BLAS the same layout
    tiles = [np.ascontiguousarray(padded[:, t : t + _TILE]) for t in range(0, K, _TILE)]
    out = np.empty((K, n))
    bounds = _row_blocks(n)
    rows = min(n, _ROW_BLOCK)
    prod = np.empty((rows, _TILE))
    if sort_rows:
        buf = np.empty((rows, C))
    for lo, hi in zip(bounds, bounds[1:]):
        block = probs[lo:hi]
        if sort_rows:
            block = buf[: hi - lo]
            block[...] = probs[lo:hi]
            block.sort(axis=1)
        for t, tile in zip(range(0, K, _TILE), tiles):
            w = min(_TILE, K - t)
            np.matmul(block, tile, out=prod[: hi - lo])
            out[t : t + w, lo:hi] = prod[: hi - lo, :w].T
    return out


def _column_chunks(widths: Sequence[int], n: int) -> list[range]:
    """Runs of consecutive members whose stacked columns form one chunk of
    at most one tile and at most _CHUNK_ELEMENTS values at n rows; a member
    wider than that is a chunk of its own."""
    cap = min(_TILE, max(1, _CHUNK_ELEMENTS // max(n, 1)))
    chunks, start, width = [], 0, 0
    for i, w in enumerate(widths):
        if i > start and width + w > cap:
            chunks.append(range(start, i))
            start, width = i, 0
        width += w
    if widths:
        chunks.append(range(start, len(widths)))
    return chunks


def _member_payoffs(
    probs: np.ndarray,
    specs: Iterable[UtilitySpec],
    labels: np.ndarray | None = None,
    row_of: np.ndarray | None = None,
) -> Iterator[tuple[tuple, np.ndarray, np.ndarray | None]]:
    """``(key, v, u)`` once per distinct utility of ``specs`` (by
    :meth:`UtilitySpec.key`): the predicted utility v of every row of
    ``probs`` and, with ``labels``, the realized payoff u(p, e_label) of
    every label, else None.  v and u are new arrays the caller owns.

    ``row_of``, when given, pairs label i with row ``row_of[i]`` of
    ``probs`` instead of row i, so a row's argmax or payoff vector is
    computed once however many labels it is paired with.

    The "column" members, then the "rank" members, are stacked into chunks
    (:func:`_column_chunks`), each one :func:`_column_products` call, on
    sorted row blocks for rank, so the rows are read once per chunk rather
    than once per member.  A K-column member's v and realized argmax come
    from the same product; the rank members' payoffs read the true-class
    label ranks, counted once.  A member's bits do not depend on the rest
    of ``specs`` or on the chunking.  The "max", "unit" and "dense" members
    follow, one at a time.  A chunk goes after its last member, and no
    temporary of a member outlives it, so a pass holds one chunk at a time.
    """
    probs = np.asarray(probs, dtype=np.float64)
    n, C = probs.shape
    at = slice(None) if row_of is None else row_of
    forms: dict[tuple, tuple[str, np.ndarray | int | None]] = {}
    for spec in specs:
        forms.setdefault(spec.key(), _payoff_form(spec, C))
    for stack in ("column", "rank"):
        # as C x K matrices: a rank member's theta is one column
        members = [
            (key, np.reshape(G, (C, -1))) for key, (form, G) in forms.items() if form == stack
        ]
        if not members:
            continue
        index = labels
        if stack == "rank" and labels is not None:
            index = _label_ranks(probs, labels, row_of) - 1
        for chunk in _column_chunks([G.shape[1] for _, G in members], n):
            part = members[chunk.start : chunk.stop]
            prods = _column_products(
                probs, np.hstack([G for _, G in part]), sort_rows=stack == "rank"
            )
            ends = np.cumsum([G.shape[1] for _, G in part])
            for (key, G), rows in zip(part, np.split(prods, ends[:-1])):
                wide = len(rows) > 1
                if labels is None:
                    u = None
                elif wide:
                    u = G[labels, rows.argmax(axis=0)[at]]
                else:  # 1-D indexing: a mixed index is twice as slow
                    u = G[:, 0][index]
                yield key, rows.max(axis=0) if wide else rows[0].copy(), u
            del prods, rows  # the chunk goes before the next one is computed
    for key, (form, param) in forms.items():
        if form in ("max", "unit", "dense"):
            yield key, *_lone_payoffs(form, param, probs, labels, row_of)


def _lone_payoffs(
    form: str,
    param: np.ndarray | int | None,
    probs: np.ndarray,
    labels: np.ndarray | None,
    row_of: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """(v, u) of a "max", "unit" or "dense" member for
    :func:`_member_payoffs`; its argmax or n x C payoffs go on return."""
    if form == "max":  # the row maximum, read at the first argmax
        best = _row_argmax(probs)
        v = probs[np.arange(len(probs)), best]
        hit = best if row_of is None else best[row_of]
    elif form == "unit":  # + 0.0 reads a -0.0 entry as 0.0, as p @ e_c does
        v = probs[:, param] + 0.0
        hit = param
    else:
        payoffs = probs @ param
        v = np.einsum("ij,ij->i", probs, payoffs)
    if labels is None:
        return v, None
    if form == "dense":
        return v, payoffs[np.arange(len(labels)) if row_of is None else row_of, labels]
    return v, (labels == hit).astype(np.float64)  # the one-hot payoff


def predicted_utility(spec: UtilitySpec, probs: np.ndarray) -> np.ndarray:
    """Predicted utility v_u for every row of ``probs``."""
    return next(_member_payoffs(probs, [spec]))[1]


def realized_utility(
    spec: UtilitySpec, probs: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Realized payoff u(p_i, e_{label_i}) for every row and its label."""
    labels = np.asarray(labels, dtype=np.int64)
    return next(_member_payoffs(probs, [spec], labels))[2]


def payoff_matrix(spec: UtilitySpec, probs: np.ndarray) -> np.ndarray:
    """Full n x C payoff vectors uvec(p_i); used by population computations
    and patch steps.  It materializes n x C, so large-n callers pass the
    rows they need: a patch step passes one row block at a time, on which
    every form gives each row the bits it gives it in a whole-matrix call
    (a "column" or "dense" product goes by :func:`_row_blocks` either
    way)."""
    probs = np.asarray(probs, dtype=np.float64)
    n, C = probs.shape
    form, param = _payoff_form(spec, C)
    if form == "column":
        if param.shape[1] == 1:
            return np.broadcast_to(param[:, 0], (n, C)).copy()
        return param[:, _column_products(probs, param).argmax(axis=0)].T
    if form == "max":
        out = np.zeros((n, C))
        out[np.arange(n), _row_argmax(probs)] = 1.0
        return out
    if form == "unit":
        out = np.zeros((n, C))
        out[:, param] = 1.0
        return out
    if form == "rank":  # theta[r - 1] goes to the class ranked r
        out = np.empty((n, C))
        order = np.argsort(-probs, axis=1, kind="stable")
        np.put_along_axis(out, order, np.broadcast_to(param, (n, C)), axis=1)
        return out
    return _column_products(probs, param).T.copy()  # C-ordered, as fit's D reads it


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
    hashes, inverse = np.unique(_row_hashes(bits), return_inverse=True)
    if len(hashes) == n:
        return probs, None
    rep = np.empty(len(hashes), dtype=np.intp)
    rep[inverse] = np.arange(n)  # any row of a hash: the check proves them equal
    block = max(1, _BLOCK_ELEMENTS // C)
    for lo in range(0, n, block):  # each row against its hash's representative
        if not (bits[lo : lo + block] == bits[rep[inverse[lo : lo + block]]]).all():
            uniq, inverse = np.unique(bits, axis=0, return_inverse=True)
            if len(uniq) == n:
                return probs, None
            return uniq.view(np.float64), inverse.reshape(-1)
    return probs[rep], inverse


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
    _, v, u = next(_member_payoffs(points, [spec], preds.labels, inverse))
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
    any order among equal residuals gives the same bits.  That is why only
    the rows of multi-row blocks are re-sorted, by an unstable sort of
    their r, then a stable (radix, for up to 65 535 such blocks) sort of
    their block ids; a one-row block keeps its row.  A block that mixes
    -0.0 and 0.0 in v reports -0.0 when any of its rows holds -0.0, else
    0.0.
    """
    order = np.argsort(v)
    vs = v[order]
    fresh = vs[1:] != vs[:-1]
    if fresh.all():
        return vs, r[order]
    opens = np.concatenate(([True], fresh))  # a sorted position opens a block
    starts = np.flatnonzero(opens)
    block_v = vs[starts]
    zero = np.flatnonzero(block_v == 0)
    if zero.size:
        b = zero[0]
        end = starts[b + 1] if b + 1 < starts.size else vs.size
        block_v[b] = -0.0 if np.signbit(vs[starts[b] : end]).any() else 0.0
    del vs
    same = ~fresh
    tied = np.zeros(v.size, dtype=bool)  # equal to the previous or next row
    tied[1:] = same
    tied[:-1] |= same
    tied = np.flatnonzero(tied)
    del fresh, same
    rows = order[tied]
    first = opens[tied]
    ids = np.cumsum(first, dtype=np.min_scalar_type(np.count_nonzero(first)))
    sub = np.argsort(r[rows])
    order[tied] = rows[sub[np.argsort(ids[sub], kind="stable")]]
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

    ``points`` holds the distinct rows (:func:`distinct_rows`); when every
    row is distinct, ``points`` is the sample's own matrix and ``row_of``
    and ``counts`` are None, so each row is its own pair.  Otherwise the
    sample is one (point, label) pair per distinct combination: pair i joins
    point ``row_of[i]`` with label ``labels[i]`` and stands for
    ``counts[i]`` rows.  A step that moves every point keeps the pairs, so
    :func:`dataclasses.replace` with new ``points`` gives the law of the
    moved sample.
    """

    points: np.ndarray
    row_of: np.ndarray | None
    labels: np.ndarray
    counts: np.ndarray | None
    n: int

    def pair_points(self) -> np.ndarray:
        """The point of each (point, label) pair."""
        return self.points if self.row_of is None else self.points[self.row_of]


def group_sample(preds: LabeledPredictions) -> GroupedSample:
    """The distinct rows of ``preds`` and its (point, label, count) pairs."""
    points, inverse = distinct_rows(preds.probs)
    if inverse is None:
        return GroupedSample(points, None, preds.labels, None, preds.n)
    C = preds.C
    keys = inverse * C  # one (row, label) key row * C + label per row
    keys += preds.labels
    pairs, counts = np.unique(keys, return_counts=True)
    del keys
    row_of, labels = np.divmod(pairs, C)
    return GroupedSample(points, row_of, labels, counts.astype(np.float64), preds.n)


def _pool_estimates(
    data: LabeledPredictions | GroupedSample, specs: Iterable[UtilitySpec]
) -> Iterator[tuple[tuple, np.ndarray, UcEstimate]]:
    """``(key, v, estimate)`` once per distinct utility of ``specs`` (by
    :meth:`UtilitySpec.key`), in the order :func:`_member_payoffs` yields
    them: v is the utility's predicted utility on the law's points, the
    estimate its :func:`uc_hat_pool` entry."""
    law = data if isinstance(data, GroupedSample) else group_sample(data)
    row_of = law.row_of
    for key, v, r in _member_payoffs(law.points, specs, law.labels, row_of):
        if row_of is None:  # r turns from the realized payoff into the residual
            r -= v
        else:
            r -= v[row_of]
            r = np.bincount(row_of, weights=law.counts * r, minlength=len(v))
        spread, interval, sign = _worst_interval(v, r)
        yield key, v, UcEstimate(spread / law.n, interval, sign)


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

    Each distinct utility (by :meth:`UtilitySpec.key`) is evaluated once, by
    one :func:`_member_payoffs` pass over the whole pool
    (:func:`_pool_estimates`), and its repeats share the estimate.  An
    estimate does not depend on the rest of the pool or on the chunking, so
    it is bit-identical to :func:`uc_hat` of its utility alone.
    """
    specs = list(specs)
    by_key = {key: est for key, _, est in _pool_estimates(data, specs)}
    return [by_key[spec.key()] for spec in specs]


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
        if as_int("m", self.m) < 1:
            raise DomainError("need at least one bin")

    def edges(self, values: np.ndarray) -> np.ndarray:
        return self._sorted_edges(np.sort(np.asarray(values, dtype=np.float64)))

    def _bin_of(self, s: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Bin of each value of ``x`` under the edges of the ascending values
        ``s``: ``searchsorted(edges, x, "right") - 1`` clipped to the bins.

        Equal-width edges are not built.  ``np.linspace`` puts edge j < m at
        j * (1/m) and edge m at 1.0, so x's bin is the largest j < m with
        j * (1/m) <= x (0 if none): floor(x * m) is within one of it."""
        if self.kind == "equal-width":
            m = self.m
            step = 1.0 / m
            j = np.clip(np.floor(x * m), 0, m - 1)
            j[(j > 0) & (j * step > x)] -= 1
            j[(j + 1 < m) & ((j + 1) * step <= x)] += 1
            return j.astype(np.int64)
        edges = self._sorted_edges(s)
        return np.clip(np.searchsorted(edges, x, side="right") - 1, 0, len(edges) - 2)

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
    _, v, u = next(_member_payoffs(preds.probs, [spec], preds.labels))
    order = np.argsort(v)
    vs, us = v[order], u[order]
    starts = np.flatnonzero(np.concatenate(([True], vs[1:] != vs[:-1])))
    group_bin = scheme._bin_of(vs, vs[starts])  # each distinct v once
    bin_starts = np.flatnonzero(
        np.concatenate(([True], group_bin[1:] != group_bin[:-1]))
    )
    counts = np.diff(np.append(starts, len(vs)))
    gaps = np.add.reduceat(vs[starts] * counts, bin_starts) - np.add.reduceat(
        us, starts[bin_starts]
    )  # the occupied bins only
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


def brier_matrix(
    probs: np.ndarray, labels: np.ndarray, counts: np.ndarray | None = None
) -> float:
    """Mean squared distance between one-hot labels and predictions.

    With ``counts``, row i stands for ``counts[i]`` rows (the pairs of a
    :class:`GroupedSample`) and its term is repeated that many times.
    Per-row terms are summed in sorted order, so the score is bit-identical
    under row permutations, and a law's score is bit-identical to that of
    the rows it stands for: both sum the same sorted array.  The terms are
    computed one row block at a time in one reused block buffer, each row's
    alone, so the pass holds one block of temporaries.
    """
    n = len(labels)
    per_row = np.empty(n)
    bounds = _row_blocks(n)
    buf = np.empty((min(n, _ROW_BLOCK), probs.shape[1]))
    for lo, hi in zip(bounds, bounds[1:]):
        diff = buf[: hi - lo]
        diff[...] = probs[lo:hi]
        diff[np.arange(hi - lo), labels[lo:hi]] -= 1.0
        diff *= diff
        per_row[lo:hi] = diff.sum(axis=1)
    if counts is not None:
        per_row = np.repeat(per_row, counts.astype(np.intp))
    per_row = np.sort(per_row)
    return float(per_row.sum() / len(per_row))


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
    exactly a threshold rule in v, and no threshold splits equal v values.
    So the rules are "commit on the tie-merged blocks j and after" of the
    v-sorted support (:func:`_merge_ties`), j = 0 ... B, where j = B commits
    nowhere.  Each point costs its abstain sum (ideal commits) or its commit
    sum (ideal abstains); rule j's risk is the prefix of the blocks'
    abstain sums before j plus the suffix of their commit sums from j.
    1{v >= t0} is the rule at the first block with v >= t0, so it lies in
    the table, and the best monotone risk is the table's minimum.  Block
    sums are bit-identical under support permutations, and so the risks.
    """
    if not -1.0 <= t0 <= 1.0:
        raise DomainError(f"t0 must be in [-1, 1], got {t0}")
    v, uvec, uc = _population_pass(dist, spec)
    cost = dist.weights[:, None] * dist.cond_label * np.abs(uvec - t0)
    ideal = uvec >= t0
    block_v, abstain = _merge_ties(v, np.where(ideal, cost, 0.0).sum(axis=1))
    commit = _merge_ties(v, np.where(ideal, 0.0, cost).sum(axis=1))[1]
    risk = np.concatenate(([0.0], np.cumsum(abstain)))
    risk += np.concatenate((np.cumsum(commit[::-1])[::-1], [0.0]))
    risk_v, risk_best = float(risk[np.searchsorted(block_v, t0)]), float(risk.min())
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


def _random_similarity(C: int, rng: np.random.Generator) -> UtilitySpec:
    sim = rng.uniform(-1.0, 1.0, size=(C, C))
    sim = (sim + sim.T) / 2.0
    np.fill_diagonal(sim, 1.0)
    return UtilitySpec.similarity(sim)


# family -> draw of a random utility of it on C classes, in FAMILIES order:
# random_instance picks a family by its index here
_RANDOM_UTILITY = {
    "top_class": lambda C, rng: UtilitySpec.top_class(),
    "class_wise": lambda C, rng: UtilitySpec.class_wise(int(rng.integers(C))),
    "top_k": lambda C, rng: UtilitySpec.top_k(int(rng.integers(1, C + 1))),
    "rank": sample_rank,
    "linear": sample_linear,
    "dcg": lambda C, rng: UtilitySpec.dcg(float(rng.uniform(0.5, 2.0))),
    "decision": lambda C, rng: sample_decision(C, int(rng.integers(2, 5)), rng),
    "gain_matrix": gain_matrix_aligned,
    "similarity": _random_similarity,
}


def random_instance(
    rng: np.random.Generator, n_max: int = 200, c_max: int = 8
) -> tuple[LabeledPredictions, UtilitySpec]:
    """A random dataset and a random utility from any family, for
    estimator-vs-oracle trials."""
    n = int(rng.integers(1, n_max + 1))
    C = int(rng.integers(2, c_max + 1))
    probs = _uniform_simplex(rng, (n, C))
    preds = LabeledPredictions(probs, rng.integers(0, C, size=n))
    draw = list(_RANDOM_UTILITY.values())[rng.integers(len(_RANDOM_UTILITY))]
    return preds, draw(C, rng)


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
