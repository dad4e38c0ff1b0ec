import dataclasses
import hashlib
import json
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from utilcal import (
    BinScheme,
    DomainError,
    FiniteDistribution,
    GuardError,
    LabeledPredictions,
    UtilitySpec,
    ValidationError,
    accuracy,
    brier,
    comb_pool,
    cwe_binned,
    dcg_pool,
    dcu_bound_check,
    derive_rng,
    evaluate_metrics,
    eval_utility,
    gen_calibrated,
    gen_miscalibrated,
    gen_two_point,
    population_uc,
    residuals,
    risk_gap_check,
    tce_binned,
    two_point_distribution,
    uc_hat,
    uc_hat_oracle,
    uc_hat_pool,
)
from utilcal import estimators
from utilcal.dataset import load_labels_csv, load_predictions_csv
from utilcal.ecdf import ecdf_evaluate
from utilcal.estimators import (
    brier_matrix,
    distinct_rows,
    group_sample,
    oracle_trials,
    payoff_matrix,
    predicted_utility,
    random_instance,
    realized_utility,
)
from utilcal.utilities import (
    FAMILIES,
    gain_matrix_aligned,
    sample_decision,
    sample_linear,
    sample_rank,
)


def random_preds(rng, n, C):
    e = -np.log1p(-rng.random((n, C)))
    probs = e / e.sum(axis=1, keepdims=True)
    return LabeledPredictions(probs, rng.integers(0, C, size=n))


def random_dist(rng, S, C):
    sup = -np.log1p(-rng.random((S, C)))
    sup /= sup.sum(axis=1, keepdims=True)
    q = -np.log1p(-rng.random((S, C)))
    q /= q.sum(axis=1, keepdims=True)
    w = -np.log1p(-rng.random(S))
    w /= w.sum()
    return FiniteDistribution(sup, w, q)


class TestResiduals:
    def test_one_hot_correct(self):
        d = LabeledPredictions(np.array([[1.0, 0.0]]), np.array([0]))
        v, r = residuals(d, UtilitySpec.top_class())
        assert v[0] == 1.0 and r[0] == 0.0

    def test_two_point_row(self):
        d = LabeledPredictions(
            np.array([[0.45, 0.275, 0.275]]), np.array([1])
        )
        v, r = residuals(d, UtilitySpec.top_class())
        assert v[0] == pytest.approx(0.45, abs=1e-15)
        assert r[0] == pytest.approx(-0.45, abs=1e-15)

    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_identity_with_weighted_form(self, seed):
        # r_i must equal <e_label - p, uvec(p)> from the weighted-calibration
        # formulation
        rng = np.random.default_rng(seed)
        d, spec = random_instance(rng, n_max=30, c_max=6)
        v, r = residuals(d, spec)
        uvec = payoff_matrix(spec, d.probs)
        onehot = np.zeros_like(d.probs)
        onehot[np.arange(d.n), d.labels] = 1.0
        alt = np.einsum("ij,ij->i", onehot - d.probs, uvec)
        assert np.allclose(r, alt, atol=1e-12)
        assert np.all(np.abs(v) <= 1 + 1e-12) and np.all(np.abs(r) <= 2 + 1e-12)

    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_vectorized_matches_scalar(self, seed):
        rng = np.random.default_rng(seed)
        d, spec = random_instance(rng, n_max=20, c_max=6)
        v = predicted_utility(spec, d.probs)
        u = realized_utility(spec, d.probs, d.labels)
        for i in range(d.n):
            out = eval_utility(spec, d.probs[i])
            assert v[i] == pytest.approx(out.v, abs=1e-12)
            assert u[i] == pytest.approx(out.uvec[d.labels[i]], abs=1e-12)


def family_spec(family, C, rng):
    """One utility of ``family`` on C classes."""
    sim = rng.uniform(-1.0, 1.0, size=(C, C))
    sim = (sim + sim.T) / 2.0
    np.fill_diagonal(sim, 1.0)
    return {
        "top_class": lambda: UtilitySpec.top_class(),
        "class_wise": lambda: UtilitySpec.class_wise(C - 2),
        "top_k": lambda: UtilitySpec.top_k(2),
        "rank": lambda: sample_rank(C, rng),
        "linear": lambda: sample_linear(C, rng),
        "dcg": lambda: UtilitySpec.dcg(1.5),
        "decision": lambda: sample_decision(C, 3, rng),
        "gain_matrix": lambda: gain_matrix_aligned(C, rng),
        "similarity": lambda: UtilitySpec.similarity(sim),
    }[family]()


class TestFamilyForms:
    def test_random_instance_draws_every_family(self):
        # the oracle trials pick a family by its index in this table: a new
        # family left out of it would never be checked against the oracle
        assert tuple(estimators._RANDOM_UTILITY) == FAMILIES
        for family, draw in estimators._RANDOM_UTILITY.items():
            assert draw(4, np.random.default_rng(0)).family == family

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_scalar_reference(self, family):
        # every vectorized pass against eval_utility, row by row, on
        # continuous rows and on rows with ties inside and across rows
        rng = np.random.default_rng(11)
        C = 5
        spec = family_spec(family, C, rng)
        assert spec.family == family
        tied_rows = np.array([
            [0.2, 0.2, 0.2, 0.2, 0.2],
            [0.4, 0.4, 0.1, 0.1, 0.0],
            [0.0, 0.3, 0.3, 0.3, 0.1],
            [0.0, 0.0, 1.0, 0.0, 0.0],
        ])
        tied = LabeledPredictions(np.repeat(tied_rows, 5, axis=0), rng.integers(0, C, 20))
        for d in (random_preds(rng, 60, C), tied):
            v = predicted_utility(spec, d.probs)
            u = realized_utility(spec, d.probs, d.labels)
            uvec = payoff_matrix(spec, d.probs)
            for i in range(d.n):
                ref = eval_utility(spec, d.probs[i])
                assert v[i] == pytest.approx(ref.v, abs=1e-12)
                assert u[i] == pytest.approx(ref.uvec[d.labels[i]], abs=1e-12)
                np.testing.assert_allclose(uvec[i], ref.uvec, rtol=0, atol=1e-12)


    def test_class_wise_reads_the_column(self):
        # class_wise(c) predicts p_c exactly as p @ e_c does, -0.0 read as 0.0
        probs = np.array([[-0.0, 1.0, 0.0], [0.25, -0.0, 0.75], [0.5, 0.5, -0.0]])
        for c in range(3):
            v = predicted_utility(UtilitySpec.class_wise(c), probs)
            assert v.tobytes() == (probs @ np.eye(3)[c]).tobytes()

    @pytest.mark.parametrize("C", [2, 7, 100])
    def test_rank_payoff_is_the_stable_sort_bytes(self, C):
        # theta goes to the classes in (-p_j, j) order: tied entries
        # (-0.0 == 0.0 among them) in column order
        rng = np.random.default_rng(C)
        probs = np.vstack([
            tied_signed_rows(rng, 300, C),
            np.full((5, C), 1.0 / C),
            random_preds(rng, 100, C).probs,
        ])
        order = np.lexsort((np.broadcast_to(np.arange(C), probs.shape), -probs), axis=1)
        for spec in (UtilitySpec.top_k(C // 2 + 1), sample_rank(C, rng), UtilitySpec.dcg(1.0)):
            want = np.empty_like(probs)
            theta = estimators._payoff_form(spec, C)[1]
            np.put_along_axis(want, order, np.broadcast_to(theta, probs.shape), axis=1)
            assert payoff_matrix(spec, probs).tobytes() == want.tobytes()

    @pytest.mark.parametrize("C", [2, 10, 40])
    def test_dense_payoffs_are_the_tiled_product_c_ordered(self, C):
        # the dense form goes by _column_products' row blocks, so one block
        # of rows gets the bits of the whole-matrix call; it comes back
        # C-ordered, as a transposed view can move the bits of row sums
        rng = np.random.default_rng(C)
        probs = random_preds(rng, 2 * estimators._ROW_BLOCK + 9, C).probs
        spec = family_spec("similarity", C, rng)
        whole = payoff_matrix(spec, probs)
        assert whole.flags.c_contiguous
        assert whole.tobytes() == estimators._column_products(probs, spec.sim).T.tobytes()
        lo, hi = estimators._row_blocks(len(probs))[1:3]
        assert payoff_matrix(spec, probs[lo:hi]).tobytes() == whole[lo:hi].tobytes()

    def test_label_ranks_follow_the_stable_sort_across_row_blocks(self):
        rng = np.random.default_rng(13)
        n, C = 8193, 10
        probs = tied_signed_rows(rng, n, C)
        labels = rng.integers(0, C, size=n)
        order = np.argsort(-probs, axis=1, kind="stable")
        want = np.argmax(order == labels[:, None], axis=1) + 1
        assert np.array_equal(estimators._label_ranks(probs, labels), want)


class TestUcHat:
    def test_two_point_value_and_witness(self):
        est = uc_hat(gen_two_point(20), UtilitySpec.top_class())
        assert est.value == pytest.approx(0.2, abs=1e-12)
        # both orientations certify the same violation; fp decides which
        # prefix extremum comes first
        assert (est.interval, est.sign) in [
            ((0.45, 0.45), -1),
            ((0.55, 0.55), 1),
        ]

    def test_perfect_predictor_zero(self):
        probs = np.eye(4)[np.arange(12) % 4]
        d = LabeledPredictions(probs, np.arange(12) % 4)
        assert uc_hat(d, UtilitySpec.top_class()).value == 0.0

    def test_witness_recompute_invariant(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            d, spec = random_instance(rng, n_max=60, c_max=6)
            est = uc_hat(d, spec)
            v, r = residuals(d, spec)
            mask = (v >= est.interval[0]) & (v <= est.interval[1])
            direct = abs(r[mask].sum()) / d.n
            assert direct == pytest.approx(est.value, abs=1e-12)
            assert est.sign * r[mask].sum() / d.n == pytest.approx(
                est.value, abs=1e-12
            )
            assert 0.0 <= est.value <= 2.0

    def test_oracle_equivalence_sample(self):
        max_diff, failures = oracle_trials(200, n_max=200, c_max=8, seed=42)
        assert failures == []
        assert max_diff <= 1e-12

    def test_single_point(self):
        d = LabeledPredictions(np.array([[0.3, 0.7]]), np.array([0]))
        v, r = residuals(d, UtilitySpec.top_class())
        assert uc_hat(d, UtilitySpec.top_class()).value == pytest.approx(
            abs(r[0]), abs=1e-15
        )
        assert uc_hat_oracle(d, UtilitySpec.top_class()) == pytest.approx(
            abs(r[0]), abs=1e-15
        )

    def test_all_positive_residuals_full_interval(self):
        # distinct v, every residual positive: the full interval dominates
        rng = np.random.default_rng(0)
        probs = np.column_stack([rng.uniform(0.05, 0.45, 20),
                                 rng.uniform(0.3, 0.5, 20)])
        probs = np.column_stack([probs, 1.0 - probs.sum(axis=1)])
        d = LabeledPredictions(probs, np.zeros(20, dtype=int))
        spec = UtilitySpec.linear([1.0, 0.0, 0.0])
        v, r = residuals(d, spec)
        assert np.all(r > 0) and len(np.unique(v)) == 20
        assert uc_hat_oracle(d, spec) == pytest.approx(r.sum() / 20, abs=1e-12)

    def test_oracle_guard(self):
        d = random_preds(np.random.default_rng(0), 10001, 3)
        with pytest.raises(GuardError):
            uc_hat_oracle(d, UtilitySpec.top_class())

    def test_fault_injection_path(self, monkeypatch):
        monkeypatch.setattr(estimators, "uc_hat", perturb_first_estimate())
        max_diff, failures = oracle_trials(3, seed=0)
        assert failures == [0]
        assert max_diff >= 1e-6


def perturb_first_estimate():
    """A stand-in for uc_hat whose first estimate is 1e-6 too high."""
    real = estimators.uc_hat
    calls = []

    def perturbed(preds, spec):
        est = real(preds, spec)
        calls.append(None)
        if len(calls) == 1:
            est = dataclasses.replace(est, value=est.value + 1e-6)
        return est

    return perturbed


def specs_for(C, seed, draws=200):
    """Specs of every family that fit C classes, drawn by random_instance."""
    specs = []
    for t in range(draws):
        _, spec = random_instance(derive_rng(seed, t), n_max=1, c_max=C)
        try:
            spec.check_dim(C)
        except DomainError:
            continue
        specs.append(spec)
    return specs


class TestUcHatPool:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_spec_uc_hat(self, seed):
        C = 4
        specs = specs_for(C, seed)
        assert {s.family for s in specs} == set(FAMILIES)
        pool = specs + comb_pool(C) + dcg_pool() + [specs[3]]
        rng = np.random.default_rng(seed)
        continuous = random_preds(rng, 300, C)
        tied, _ = gen_calibrated(300, C, support_size=7, seed=seed)
        for d in (continuous, tied):
            got = uc_hat_pool(d, pool)
            assert len(got) == len(pool)
            for spec, est in zip(pool, got):
                assert est == uc_hat(d, spec)

    def test_each_distinct_utility_evaluated_once(self, monkeypatch):
        d = random_preds(np.random.default_rng(3), 100, 5)
        calls = {"products": 0, "ranks": 0}
        members, label_ranks = estimators._member_payoffs, estimators._label_ranks
        products = estimators._column_products
        evaluated = []

        def record_members(*args):
            for key, v, u in members(*args):
                evaluated.append(key)
                yield key, v, u

        def count_products(probs, G, **kw):
            calls["products"] += 1
            return products(probs, G, **kw)

        def count_ranks(*args):
            calls["ranks"] += 1
            return label_ranks(*args)

        monkeypatch.setattr(estimators, "_member_payoffs", record_members)
        monkeypatch.setattr(estimators, "predicted_utility", None)
        monkeypatch.setattr(estimators, "realized_utility", None)
        monkeypatch.setattr(estimators, "_label_ranks", count_ranks)
        monkeypatch.setattr(estimators, "_column_products", count_products)
        a = np.linspace(-1.0, 1.0, 5)
        pool = comb_pool(5) + dcg_pool() + comb_pool(5) + [
            UtilitySpec.linear(a), UtilitySpec.linear(a.copy()),
        ]
        got = uc_hat_pool(d, pool)
        # one evaluator pass: the linear member is one stacked product, the
        # 5 top_k plus 6 dcg members one sorted-row product, and the 5
        # class_wise members are read from their columns
        assert calls == {"products": 2, "ranks": 1}
        assert len(evaluated) == len(set(evaluated)) == 5 + 5 + 6 + 1
        assert got[0] is got[16] and got[-1] is got[-2]

    def test_no_rank_pass_without_rank_families(self, monkeypatch):
        monkeypatch.setattr(estimators, "_label_ranks", None)
        d = random_preds(np.random.default_rng(5), 50, 3)
        assert len(uc_hat_pool(d, [UtilitySpec.top_class()] + comb_pool(3)[:3])) == 4

    def test_empty_pool(self):
        assert uc_hat_pool(gen_two_point(20), []) == []

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_label_out_of_range(self, bad):
        # the type rejects it, so no estimator can index class bad mod C
        with pytest.raises(ValidationError, match="labels"):
            LabeledPredictions(np.full((4, 3), 1.0 / 3.0), np.array([0, 1, bad, 2]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_raises(self, bad):
        # a library call that skips validate must not report a number
        probs = np.array([[0.5, 0.3, 0.2], [bad, 0.5, 0.5], [0.1, 0.1, 0.8]])
        with pytest.raises(ValidationError, match="finite"):
            LabeledPredictions(probs, np.array([0, 1, 2]))

    def test_overflowing_rows_raise(self):
        # finite rows whose entries would overflow the residual sums are
        # rejected where the sample is built, so no estimator sees them
        probs = np.array([[1e308, -1e308], [1e308, -1e308], [0.5, 0.5]])
        with pytest.raises(ValidationError, match=r"\[-1, 2\]"):
            LabeledPredictions(probs, np.array([1, 1, 0]))


def estimate_bytes(est):
    return np.array([est.value, *est.interval, est.sign]).tobytes()


def matrix_pool(C, rng):
    """linear, decision and gain_matrix members, widths 1, 1, 1, 2, 1, C, 1, 1, 4."""
    return [
        sample_linear(C, rng), sample_linear(C, rng), sample_linear(C, rng),
        sample_decision(C, 2, rng), sample_linear(C, rng), gain_matrix_aligned(C, rng),
        sample_linear(C, rng), sample_linear(C, rng), sample_decision(C, 4, rng),
    ]


def rank_pool(C, rng):
    """top_k for every k (a spread of k, 1 and C among them, beyond C = 100),
    a sampled rank and two dcg members."""
    ks = range(1, C + 1) if C <= 100 else sorted({1, 2, 31, 32, 33, C // 2, C - 1, C})
    return [UtilitySpec.top_k(k) for k in ks] + [
        sample_rank(C, rng), UtilitySpec.dcg(1.0), UtilitySpec.dcg(0.5),
    ]


def tied_signed_rows(rng, n, C):
    """Simplex rows where every third row has a tied maximum, and the others
    hold 0.0 or -0.0 entries (both signs at once when C > 2)."""
    e = -np.log1p(-rng.random((n, C)))
    e[::3, -1] = e[::3].max(axis=1)
    e[1::3, 0] = 0.0
    e[2::3, 0] = -0.0
    if C > 2:
        e[2::3, 1] = 0.0
    return e / e.sum(axis=1, keepdims=True)


class TestStackedProducts:
    """A pool's matrix-payoff members share one tiled product per chunk, and
    its rank members one tiled product on sorted rows per tile; no member's
    bits may depend on the rest of the pool or the chunking."""

    @pytest.mark.parametrize("C", [2, 10, 100, 1000])
    @pytest.mark.parametrize("n", [1, 2, 4095, 4097, 8193])
    def test_pool_member_matches_alone_bitwise(self, n, C):
        rng = np.random.default_rng((n, C))
        d = random_preds(rng, n, C)
        pool = matrix_pool(C, rng) + [UtilitySpec.top_class()] + rank_pool(C, rng)
        for spec, est in zip(pool, uc_hat_pool(d, pool)):
            assert estimate_bytes(est) == estimate_bytes(uc_hat(d, spec)), spec.label()

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_chunking_keeps_every_bit(self, monkeypatch, width):
        rng = np.random.default_rng(width)
        C = 10
        pool = matrix_pool(C, rng) + rank_pool(C, rng)
        continuous = random_preds(rng, 4097, C)
        tied, _ = gen_calibrated(3001, C, support_size=20, seed=width)
        for d in (continuous, tied):
            whole = [estimate_bytes(e) for e in uc_hat_pool(d, pool)]
            S = len(group_sample(d).points)
            calls = []
            products = estimators._column_products
            monkeypatch.setattr(estimators, "_CHUNK_ELEMENTS", width * S)
            monkeypatch.setattr(
                estimators,
                "_column_products",
                lambda p, G, **kw: calls.append(1) or products(p, G, **kw),
            )
            got = [estimate_bytes(e) for e in uc_hat_pool(d, pool)]
            monkeypatch.undo()
            # widths 1,1,1,2,1,10,1,1,4 in chunks of at most `width` columns,
            # then 13 rank members in tiles of `width`
            assert len(calls) == {1: 9 + 13, 2: 7 + 7, 3: 5 + 5}[width]
            assert got == whole

    @pytest.mark.parametrize("C", [2, 10, 100, 1000])
    @pytest.mark.parametrize("n", [1, 2, 4095, 4097, 8193])
    def test_top_k_1_is_the_row_max(self, monkeypatch, n, C):
        # alone and in a pool's sorted-row product, with tied maxima and
        # signed zeros: the tile's zero rows add exact zeros to the maximum
        rng = np.random.default_rng((n, C, 1))
        probs = tied_signed_rows(rng, n, C)
        v = predicted_utility(UtilitySpec.top_k(1), probs)
        assert v.tobytes() == probs.max(axis=1).tobytes()
        # top_class reads the maximum at the first argmax: the same bits
        v = predicted_utility(UtilitySpec.top_class(), probs)
        assert v.tobytes() == probs.max(axis=1).tobytes()
        d = LabeledPredictions(probs, rng.integers(0, C, size=n))
        scored, worst = [], estimators._worst_interval
        monkeypatch.setattr(
            estimators, "_worst_interval", lambda v, r: scored.append(v.copy()) or worst(v, r)
        )
        uc_hat_pool(d, [UtilitySpec.dcg(1.0), UtilitySpec.top_k(1), UtilitySpec.top_k(C)])
        monkeypatch.undo()
        assert scored[1].tobytes() == group_sample(d).points.max(axis=1).tobytes()

    def test_chunks_hold_at_most_one_tile(self, monkeypatch):
        tile = estimators._TILE
        chunks = estimators._column_chunks([1] * (3 * tile + 1), 1000)
        assert [len(c) for c in chunks] == [tile, tile, tile, 1]
        assert estimators._column_chunks([3 * tile, 1], 1000) == [range(0, 1), range(1, 2)]
        monkeypatch.setattr(estimators, "_CHUNK_ELEMENTS", 5 * 1000)
        assert [len(c) for c in estimators._column_chunks([1] * 12, 1000)] == [5, 5, 2]

    def test_linear_pool_takes_one_tile_per_product(self, monkeypatch):
        # 200 one-column members on 20 distinct rows: ceil(200 / 32) = 7
        # products of one tile each, every estimate the bits of it alone
        rng = np.random.default_rng(12)
        C = 10
        d, _ = gen_calibrated(5000, C, support_size=20, seed=12)
        assert len(group_sample(d).points) == 20
        pool = [sample_linear(C, rng) for _ in range(200)]
        shapes, products = [], estimators._column_products
        monkeypatch.setattr(
            estimators,
            "_column_products",
            lambda p, G, **kw: shapes.append(G.shape) or products(p, G, **kw),
        )
        got = uc_hat_pool(d, pool)
        monkeypatch.undo()
        assert shapes == [(C, estimators._TILE)] * 6 + [(C, 200 - 6 * estimators._TILE)]
        for spec, est in zip(pool, got):
            assert estimate_bytes(est) == estimate_bytes(uc_hat(d, spec))

    @pytest.mark.parametrize("tied", [False, True])
    def test_matrix_member_realized_from_its_own_product(self, monkeypatch, tied):
        # a decision or gain_matrix member's v and realized argmax come from
        # its own chunk's product: the pool calls neither predicted_utility
        # nor realized_utility, and scores the v and residual that they give
        rng = np.random.default_rng(9)
        C = 100
        if tied:
            d, _ = gen_calibrated(2003, C, support_size=30, seed=9)
        else:
            d = random_preds(rng, 2003, C)
        pool = [sample_decision(C, 3, rng), gain_matrix_aligned(C, rng),
                sample_decision(C, 2, rng)]
        scored, shapes = [], []
        worst, products = estimators._worst_interval, estimators._column_products

        def record_scored(v, r):
            scored.append((v.copy(), r.copy()))
            return worst(v, r)

        def record_product(probs, G, **kw):
            shapes.append(G.shape)
            return products(probs, G, **kw)

        monkeypatch.setattr(estimators, "_worst_interval", record_scored)
        monkeypatch.setattr(estimators, "_column_products", record_product)
        monkeypatch.setattr(estimators, "predicted_utility", None)
        monkeypatch.setattr(estimators, "realized_utility", None)
        uc_hat_pool(d, pool)
        monkeypatch.undo()
        assert shapes == [(C, 3), (C, C), (C, 2)]
        law = group_sample(d)
        for spec, (v, r) in zip(pool, scored):
            want_v = predicted_utility(spec, law.points)
            want_r = next(
                estimators._member_payoffs(law.points, [spec], law.labels, law.row_of)
            )[2]
            if tied:
                want_r -= want_v[law.row_of]
                want_r = np.bincount(law.row_of, law.counts * want_r, len(law.points))
            else:
                want_r -= want_v
            assert v.tobytes() == want_v.tobytes()
            assert r.tobytes() == want_r.tobytes()

    def test_witness_mask_is_the_estimators_interval(self, monkeypatch):
        # continuous rows, witnesses drawn by augmentation: each step's mask
        # is exactly the points whose v in the stacked pool lies in the
        # witness interval, and the v the mask reads is bitwise
        # predicted_utility of the witness alone
        from utilcal import patching

        C = 100
        d = random_preds(np.random.default_rng(11), 2003, C)
        seen, steps = [], []
        worst, find = estimators._worst_interval, patching._worst_member
        apply = patching._apply_record_rows

        def record_scored(v, r):
            out = worst(v, r)
            seen.append((v.copy(), out))
            return out

        def record_witness(law, pool):
            seen.clear()
            spec, est, v = find(law, pool)
            vs = [v for v, (spread, interval, sign) in seen
                  if (spread / law.n, interval, sign) == (est.value, est.interval, est.sign)]
            assert v.tobytes() == predicted_utility(spec, law.points).tobytes()
            steps.append((spec, est, vs))
            return spec, est, v

        def record_move(probs, rec, mask, uvec):
            steps[-1] += (mask,)
            return apply(probs, rec, mask, uvec)

        monkeypatch.setattr(estimators, "_worst_interval", record_scored)
        monkeypatch.setattr(patching, "_worst_member", record_witness)
        monkeypatch.setattr(patching, "_apply_record_rows", record_move)
        seq = patching.fit(d, pool=[UtilitySpec.top_class()], epsilon=1e-3, max_iters=12,
                           augment_count=6, augment_seed=1)
        monkeypatch.undo()
        assert len(seq.records) == 12
        families = [spec.family for spec, *_ in steps]
        assert families.count("linear") >= 3
        for spec, est, vs, mask in steps:
            lo, hi = est.interval
            assert vs
            for v in vs:
                assert np.array_equal(mask, (v >= lo) & (v <= hi))

    def test_pool_memory_is_bounded(self):
        # 200 linear utilities at n = 50 000: their whole n x 200 stack of v
        # would take 80 MB; one chunk at a time stays near the budget
        d = random_preds(np.random.default_rng(7), 50_000, 10)
        tracemalloc.start()
        try:
            ecdf_evaluate(d, "linear", 200, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # each linear member is one column of a chunk, so a chunk is one
        # tile of v; a member's v is its own copy, so one chunk at a time
        assert peak < estimators._TILE * d.n * 8 + 16 * d.n * 8

    def test_rank_pool_memory_is_bounded(self):
        # 42 rank members at n = 50 000, C = 200: the pass holds one tile of
        # v, one sorted row block, one block-by-tile product and O(n)
        # vectors, never a sorted or partitioned n x C copy of the rows (80 MB)
        rng = np.random.default_rng(8)
        n, C = 50_000, 200
        d = random_preds(rng, n, C)
        pool = [UtilitySpec.top_k(k) for k in range(1, 41)] + [
            UtilitySpec.dcg(1.0), sample_rank(C, rng),
        ]
        tracemalloc.start()
        try:
            uc_hat_pool(d, pool)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tile = estimators._TILE * n * 8
        block = estimators._ROW_BLOCK * C * 8
        product = estimators._ROW_BLOCK * estimators._TILE * 8
        assert peak < tile + block + product + 16 * n * 8 < n * C * 8

    def test_dense_pool_memory_is_bounded(self):
        # a similarity member's n x C payoffs (32 MB) go before the next
        # member is computed, so two of them never coexist
        n, C = 20_000, 200
        d = random_preds(np.random.default_rng(9), n, C)
        half = np.full((C, C), 0.5)
        np.fill_diagonal(half, 1.0)
        pool = [
            UtilitySpec.similarity(np.eye(C)),
            UtilitySpec.top_class(),
            UtilitySpec.similarity(half),
        ]
        tracemalloc.start()
        try:
            uc_hat_pool(d, pool)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * C * 8 + 16 * n * 8

    def test_grouped_rank_pool_gathers_one_block_of_rows(self):
        # 50 points, each paired with all 500 labels: the 25 000 pairs' rows
        # gathered at once would take 100 MB; the label ranks gather one
        # block of them at a time
        S, C = 50, 500
        points = estimators._uniform_simplex(np.random.default_rng(10), (S, C))
        row_of = np.repeat(np.arange(S), C)
        labels = np.tile(np.arange(C), S)
        law = estimators.GroupedSample(points, row_of, labels, np.ones(S * C), S * C)
        tracemalloc.start()
        try:
            uc_hat_pool(law, [UtilitySpec.top_k(3), UtilitySpec.dcg(1.0)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < S * C * C * 8 / 2
        assert np.array_equal(
            estimators._label_ranks(points, labels, row_of),
            estimators._label_ranks(points[row_of], labels),
        )


def per_row_uc(d, spec):
    """The per-row estimator: one contribution u_i - v_i per row."""
    v = predicted_utility(spec, d.probs)
    r = realized_utility(spec, d.probs, d.labels) - v
    spread, interval, sign = estimators._worst_interval(v, r)
    return spread / d.n, interval, sign


def duplicated(preds, rng, n):
    """n rows drawn with replacement from ``preds``, with fresh labels."""
    idx = rng.integers(0, preds.n, size=n)
    return LabeledPredictions(preds.probs[idx], rng.integers(0, preds.C, size=n))


class TestDistinctRows:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_grouped_within_1e15_of_per_row(self, seed):
        # n = 2000 and C = 5: here the per-row path rounds equal rows alike
        C = 5
        d, _ = gen_calibrated(2000, C, 20, seed=seed)
        assert distinct_rows(d.probs)[1] is not None
        pool = specs_for(C, seed) + comb_pool(C) + dcg_pool()
        for spec, est in zip(pool, uc_hat_pool(d, pool)):
            value, interval, sign = per_row_uc(d, spec)
            assert abs(est.value - value) <= 1e-15
            assert (est.interval, est.sign) == (interval, sign)

    def test_oracle_agrees_on_duplicated_instances(self):
        for t in range(300):
            rng = derive_rng(77, t)
            preds, spec = random_instance(rng, n_max=60, c_max=8)
            d = duplicated(preds, rng, int(rng.integers(1, 300)))
            assert abs(uc_hat(d, spec).value - uc_hat_oracle(d, spec)) <= 1e-12

    def test_continuous_inputs_keep_their_bytes(self):
        # sha256 of the estimates on rows that are all distinct, which no
        # grouping may move; the linear and rank members' bits are those of
        # _column_products' tiled matrix product, on sorted rows for rank
        h = hashlib.sha256()
        for seed in range(3):
            rng = np.random.default_rng(seed)
            C = 4
            pool = specs_for(C, seed) + comb_pool(C) + dcg_pool()
            d = random_preds(rng, 300, C)
            for C2, n in ((10, 2001), (100, 2003)):
                d2 = random_preds(rng, n, C2)
                pool2 = [sample_linear(C2, rng) for _ in range(5)] + comb_pool(C2)[:3]
                for dd, pp in ((d, pool), (d2, pool2)):
                    assert distinct_rows(dd.probs)[1] is None
                    rows = [[e.value, *e.interval, e.sign] for e in uc_hat_pool(dd, pp)]
                    h.update(np.array(rows).tobytes())
        assert h.hexdigest() == (
            "8a688b2b1c6469a2f84a37b002a85c8bbffc8038419c94d09408156a41c3857d"
        )

    def test_distinct_input_is_returned_uncopied(self):
        d = random_preds(np.random.default_rng(4), 50, 3)
        rows, inverse = distinct_rows(d.probs)
        assert rows is d.probs and inverse is None

    @pytest.mark.parametrize("collide", [False, True])
    def test_never_merges_distinct_rows(self, monkeypatch, collide):
        # rows one ulp apart in one entry, and rows apart only in the sign
        # of a zero, stay apart; with every hash equal, the exact check
        # falls back to comparing whole rows
        if collide:
            monkeypatch.setattr(
                estimators, "_row_hashes", lambda bits: np.zeros(len(bits), np.uint64)
            )
        base = np.array([0.5, 0.25, 0.25, 0.0])
        ulp = base.copy()
        ulp[1] = np.nextafter(0.25, 1.0)
        signed = base.copy()
        signed[3] = -0.0
        probs = np.array([base, ulp, signed, base, signed, ulp, base])
        rows, inverse = distinct_rows(probs)
        assert len(rows) == 3
        assert rows[inverse].tobytes() == probs.tobytes()
        assert len(set(inverse[[0, 1, 2]])) == 3

    @pytest.mark.parametrize("first", [0, 1], ids=["a-first", "b-first"])
    def test_partial_collision_keeps_rows_apart(self, monkeypatch, first):
        # rows a and b differ but share one hash, and every other hash
        # differs: whichever of them represents the hash, the exact check
        # finds the other and falls back to np.unique's order
        rng = np.random.default_rng(11)
        pts = rng.dirichlet(np.ones(5), 4)
        pts[:, 0] = 0.2  # the first column repeats, so the hashes are read
        a, b = pts[[first, 1 - first]]
        real = estimators._row_hashes
        ha, hb = real(np.array([a, b]).view(np.uint64))

        def merged(bits):
            h = real(bits)
            h[h == hb] = ha
            return h

        monkeypatch.setattr(estimators, "_row_hashes", merged)
        probs = pts[[0, 1, 2, 3, 1, 0, 2, 0]]
        rows, inverse = distinct_rows(probs)
        want = np.unique(probs.view(np.uint64), axis=0).view(np.float64)
        assert rows.tobytes() == want.tobytes()
        assert rows[inverse].tobytes() == probs.tobytes()
        assert len(set(inverse[:4])) == 4

    def test_hashes_prove_rows_distinct(self):
        # the first column repeats but no row does: the hashes show it
        probs = np.array([[0.5, 0.5, 0.0], [0.5, 0.25, 0.25], [0.2, 0.3, 0.5]])
        rows, inverse = distinct_rows(probs)
        assert rows is probs and inverse is None

    def test_collision_fallback_orders_as_np_unique(self, monkeypatch):
        d, _ = gen_calibrated(600, 4, 12, seed=9)
        pool = [UtilitySpec.top_class()] + [UtilitySpec.class_wise(c) for c in range(4)]

        def estimate_bits():
            return np.array([[e.value, *e.interval, e.sign] for e in uc_hat_pool(d, pool)])

        hashed = estimate_bits()
        monkeypatch.setattr(
            estimators, "_row_hashes", lambda bits: np.zeros(len(bits), np.uint64)
        )
        # every row distinct: the input comes back uncopied
        probs = np.array([[0.5, 0.5, 0.0], [0.5, 0.25, 0.25], [0.5, 0.0, 0.5]])
        rows, inverse = distinct_rows(probs)
        assert rows is probs and inverse is None
        # repeated rows: np.unique's order, and the input gathered bitwise
        rows, inverse = distinct_rows(d.probs)
        want = np.unique(d.probs.view(np.uint64), axis=0).view(np.float64)
        assert rows.tobytes() == want.tobytes()
        assert rows[inverse].tobytes() == d.probs.tobytes()
        assert estimate_bits().tobytes() == hashed.tobytes()

    def test_order_independent_of_row_order(self):
        rng = np.random.default_rng(6)
        d, _ = gen_calibrated(1001, 7, 30, seed=6)
        rows, inverse = distinct_rows(d.probs)
        perm = rng.permutation(d.n)
        rows2, inverse2 = distinct_rows(d.probs[perm])
        assert rows.tobytes() == rows2.tobytes()
        assert np.array_equal(inverse[perm], inverse2)


def lexsort_merge_ties(v, r):
    """The reference tie-merge: one (v, r) lexsort, then a block sum."""
    order = np.lexsort((r, v))
    vs = v[order]
    rs = r[order]
    starts = np.flatnonzero(np.concatenate(([True], vs[1:] != vs[:-1])))
    return vs[starts], np.add.reduceat(rs, starts)


def tie_merge_case(name, rng):
    """(v, r) of one tie shape; no block mixes -0.0 and 0.0 in v."""
    if name == "continuous":
        return residuals(random_preds(rng, 3000, 6), UtilitySpec.linear(
            rng.uniform(-1, 1, 6)))
    if name == "20-distinct-rows":
        d, _ = gen_calibrated(20000, 10, 20, seed=int(rng.integers(1000)))
        return residuals(d, UtilitySpec.linear(rng.uniform(-1, 1, 10)))
    if name == "small-blocks":
        rows = random_preds(rng, 5000, 5).probs[rng.integers(0, 5000, 20000)]
        d = LabeledPredictions(rows, rng.integers(0, 5, 20000))
        return residuals(d, UtilitySpec.top_class())
    if name == "top_k_C":
        return residuals(random_preds(rng, 5000, 7), UtilitySpec.top_k(7))
    if name == "few-tie-blocks":  # mostly one-row blocks, three tied ones
        v = rng.uniform(0.0, 1.0, 3000)
        for size in (2, 5, 40):
            v[rng.choice(3000, size, replace=False)] = rng.uniform(0.0, 1.0)
        return v, rng.standard_normal(3000)
    if name == "two-residual-values":  # one tied block of two residual values
        v = rng.uniform(0.0, 1.0, 2000)
        tied = rng.choice(2000, 300, replace=False)
        v[tied] = 0.5
        r = rng.standard_normal(2000)
        r[tied] = rng.choice([0.1, -0.3], 300)
        return v, r
    # signed zeros, tiny terms and large terms that cancel exactly: the sum
    # of one block depends on its addend order
    v = rng.uniform(0.5, 1.0, 30)[rng.integers(0, 30, 4000)]
    r = rng.choice([0.0, -0.0, 1e-17, -1e-17, 1e16, -1e16, 1.0, -0.5], 4000)
    return v, r


class TestMergeTies:
    @pytest.mark.parametrize(
        "case",
        ["continuous", "20-distinct-rows", "small-blocks", "top_k_C",
         "few-tie-blocks", "two-residual-values", "cancelling-residuals"],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_lexsort_reference_bitwise(self, case, seed):
        rng = np.random.default_rng(seed)
        v, r = tie_merge_case(case, rng)
        perm = rng.permutation(v.size)
        want_v, want_sum = lexsort_merge_ties(v, r)
        for args in ((v, r), (v[perm], r[perm])):
            got_v, got_sum = estimators._merge_ties(*args)
            assert got_v.tobytes() == want_v.tobytes()
            assert got_sum.tobytes() == want_sum.tobytes()

    def test_mixed_zero_block_value_independent_of_row_order(self):
        # equal residuals leave the row order to decide which zero came first
        v = np.array([-0.0, 0.0, 1.0, 0.0, 0.5])
        r = np.array([0.25, 0.25, -1.0, 0.25, 0.5])
        for perm in ([0, 1, 2, 3, 4], [1, 0, 2, 3, 4], [3, 1, 4, 2, 0]):
            block_v, block_sum = estimators._merge_ties(v[perm], r[perm])
            assert block_v.tolist() == [0.0, 0.5, 1.0]
            assert np.signbit(block_v).tolist() == [True, False, False]
            assert block_sum.tolist() == [0.75, 0.5, -1.0]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixed_zero_block_among_one_row_blocks(self, seed):
        # a tied block of +0.0 and -0.0 among distinct v values: its sum and
        # every other block's are the reference's under any row order
        rng = np.random.default_rng(seed)
        v = rng.uniform(-1.0, 1.0, 500)
        zeros = rng.choice(500, 12, replace=False)
        v[zeros] = np.where(np.arange(12) % 3 == 0, -0.0, 0.0)
        r = rng.choice([0.0, -0.0, 0.25, -1.5, 1e-17], 500)
        want_v, want_sum = lexsort_merge_ties(v, r)
        at = np.flatnonzero(want_v == 0)[0]
        for _ in range(4):
            perm = rng.permutation(500)
            block_v, block_sum = estimators._merge_ties(v[perm], r[perm])
            assert block_sum.tobytes() == want_sum.tobytes()
            assert np.signbit(block_v[at])
            assert np.delete(block_v, at).tobytes() == np.delete(want_v, at).tobytes()

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_single_sign_zero_block_keeps_its_sign(self, zero):
        v = np.array([zero, 1.0, zero, 1.0])
        block_v, _ = estimators._merge_ties(v, np.array([0.5, -0.5, 0.5, 0.0]))
        assert np.signbit(block_v).tolist() == [bool(np.signbit(zero)), False]


@st.composite
def boundary_instances(draw):
    """Small samples at the edges: n = 1, C = 2 up to 64, all rows equal
    (continuous or uniform), a single label."""
    C = draw(st.one_of(st.sampled_from([2, 64]), st.integers(2, 64)))
    n = draw(st.one_of(st.just(1), st.integers(1, 40)))
    rows = draw(st.sampled_from(["continuous", "equal", "uniform"]))
    one_label = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    probs = random_preds(rng, n, C).probs
    if rows == "equal":
        probs = np.repeat(probs[:1], n, axis=0)
    elif rows == "uniform":
        probs = np.full((n, C), 1.0 / C)
    labels = rng.integers(0, C, size=n)
    if one_label:
        labels[:] = labels[0]
    specs = [family_spec(f, C, rng) for f in FAMILIES] + [
        UtilitySpec.class_wise(int(rng.integers(C))),
        UtilitySpec.top_k(int(rng.integers(1, C + 1))),
        UtilitySpec.top_k(C),
    ]
    return LabeledPredictions(probs, labels), specs


class TestBoundaryCases:
    @given(boundary_instances())
    @settings(max_examples=60, deadline=None)
    def test_estimators_agree(self, instance):
        d, specs = instance
        per_spec = [uc_hat(d, spec) for spec in specs]
        for spec, est in zip(specs, per_spec):
            assert abs(est.value - uc_hat_oracle(d, spec)) <= 1e-12
        assert uc_hat_pool(d, specs + specs[:2]) == per_spec + per_spec[:2]

    @pytest.mark.parametrize("form", ["max", "unit", "column", "rank", "dense"])
    def test_zero_rows_give_zero_values(self, form):
        assert estimators._row_blocks(0) == [0]
        C = 4
        spec = {
            "max": UtilitySpec.top_class(),
            "unit": UtilitySpec.class_wise(1),
            "column": UtilitySpec.decision(np.full((C, 2), 0.5)),
            "rank": UtilitySpec.top_k(1),
            "dense": UtilitySpec.similarity(np.eye(C)),
        }[form]
        assert predicted_utility(spec, np.zeros((0, C))).shape == (0,)
        assert payoff_matrix(spec, np.zeros((0, C))).shape == (0, C)


class TestInvariances:
    def test_row_permutation_bitwise(self):
        rng = np.random.default_rng(3)
        d = random_preds(rng, 500, 5)
        perm = rng.permutation(500)
        d2 = LabeledPredictions(d.probs[perm], d.labels[perm])
        # duplicated rows reach the tie-merge path of every family below
        dup, _ = gen_calibrated(2000, 5, 20, seed=3)
        dup_perm = rng.permutation(2000)
        dup2 = LabeledPredictions(dup.probs[dup_perm], dup.labels[dup_perm])
        for spec in (
            UtilitySpec.top_class(),
            UtilitySpec.linear(rng.uniform(-1, 1, 5)),
            UtilitySpec.dcg(1.0),
            UtilitySpec.top_k(5),
        ):
            assert uc_hat(d, spec).value == uc_hat(d2, spec).value
            a, b = uc_hat(dup, spec), uc_hat(dup2, spec)
            assert a == b
            assert np.array([a.value, *a.interval]).tobytes() == np.array(
                [b.value, *b.interval]
            ).tobytes()
        # n not a multiple of 4: equal rows are evaluated once each, not
        # per row, so no matrix product can round them apart by position
        for n in (2001, 2002, 2003):
            for C in (10, 100):
                dup, _ = gen_calibrated(n, C, 20, seed=n)
                dup_perm = rng.permutation(n)
                dup2 = LabeledPredictions(dup.probs[dup_perm], dup.labels[dup_perm])
                for _ in range(4):
                    spec = UtilitySpec.linear(rng.uniform(-1, 1, C))
                    a, b = uc_hat(dup, spec), uc_hat(dup2, spec)
                    assert np.array([a.value, *a.interval, a.sign]).tobytes() == (
                        np.array([b.value, *b.interval, b.sign]).tobytes()
                    )
        assert brier(d) == brier(d2)
        assert accuracy(d) == accuracy(d2)
        assert tce_binned(d, BinScheme("equal-width", 15)) == tce_binned(
            d2, BinScheme("equal-width", 15)
        )

    @pytest.mark.parametrize(
        "scan, C, case",
        [(0, 10, 14), (0, 100, 101), (0, 100, 128), (0, 100, 155), (1, 10, 113),
         (1, 100, 10), (1, 100, 65)],
    )
    def test_row_permutation_bitwise_on_continuous_rows(self, scan, C, case):
        # cases of a seeded scan (200 per C and scan, n = 2001-2003, pools of
        # four linear utilities) whose output bits moved under a row
        # permutation when each v was its own matrix-vector product
        rng = np.random.default_rng((scan, C, case))
        n = 2001 + case % 3
        e = -np.log1p(-rng.random((n, C)))
        probs = e / e.sum(axis=1, keepdims=True)
        labels = rng.integers(0, C, size=n)
        pool = [sample_linear(C, rng) for _ in range(4)]
        perm = rng.permutation(n)
        a = uc_hat_pool(LabeledPredictions(probs, labels), pool)
        b = uc_hat_pool(LabeledPredictions(probs[perm], labels[perm]), pool)
        assert [estimate_bytes(e) for e in a] == [estimate_bytes(e) for e in b]

    @pytest.mark.parametrize("C", [10, 100])
    @pytest.mark.parametrize("n", [2003, 8193])
    def test_rank_pool_row_permutation_bitwise_on_continuous_rows(self, n, C):
        # a permutation moves rows between the sorted row blocks of the
        # rank members' tiled product; no estimate may move a bit
        rng = np.random.default_rng((n, C, 2))
        d = random_preds(rng, n, C)
        pool = [UtilitySpec.top_k(k) for k in (1, 2, 3, C // 2, C)] + [
            sample_rank(C, rng), sample_rank(C, rng), UtilitySpec.dcg(0.75),
        ]
        perm = rng.permutation(n)
        a = uc_hat_pool(d, pool)
        b = uc_hat_pool(LabeledPredictions(d.probs[perm], d.labels[perm]), pool)
        assert [estimate_bytes(e) for e in a] == [estimate_bytes(e) for e in b]

    def test_class_relabeling_equivariance(self):
        rng = np.random.default_rng(8)
        d = random_preds(rng, 300, 4)
        perm = np.array([2, 0, 3, 1])
        inv = np.argsort(perm)
        d2 = LabeledPredictions(d.probs[:, perm], inv[d.labels])
        a = rng.uniform(-1, 1, 4)
        assert uc_hat(d, UtilitySpec.linear(a)).value == pytest.approx(
            uc_hat(d2, UtilitySpec.linear(a[perm])).value, abs=1e-12
        )
        c = 2
        assert uc_hat(d, UtilitySpec.class_wise(c)).value == pytest.approx(
            uc_hat(d2, UtilitySpec.class_wise(int(inv[c]))).value, abs=1e-12
        )
        sim = rng.uniform(-1, 1, (4, 4))
        sim = (sim + sim.T) / 2
        np.fill_diagonal(sim, 1.0)
        assert uc_hat(d, UtilitySpec.similarity(sim)).value == pytest.approx(
            uc_hat(d2, UtilitySpec.similarity(sim[np.ix_(perm, perm)])).value,
            abs=1e-12,
        )


class TestBinnedBaselines:
    def test_two_point_tce_zero(self):
        assert tce_binned(gen_two_point(20), BinScheme("equal-width", 3)) == 0.0

    def test_perfect_predictor_zero(self):
        probs = np.eye(3)[np.arange(9) % 3]
        d = LabeledPredictions(probs, np.arange(9) % 3)
        assert tce_binned(d, BinScheme("equal-weight", 5)) == 0.0
        assert cwe_binned(d, BinScheme("equal-weight", 5)) == 0.0

    @pytest.mark.parametrize("kind", ["equal-weight", "equal-width"])
    @pytest.mark.parametrize("m", [5, 15])
    def test_domination_bounds(self, kind, m):
        scheme = BinScheme(kind, m)
        for seed in range(20):
            d = random_preds(np.random.default_rng(seed), 300, 4)
            assert tce_binned(d, scheme) <= m * uc_hat(
                d, UtilitySpec.top_class()
            ).value + 1e-12
            cw = sum(
                uc_hat(d, UtilitySpec.class_wise(c)).value for c in range(4)
            ) / 4
            assert cwe_binned(d, scheme) <= m * cw + 1e-12

    @pytest.mark.parametrize("kind", ["equal-weight", "equal-width"])
    @pytest.mark.parametrize("m", [1, 3, 15])
    def test_matches_hand_written_formulas(self, kind, m):
        # binned utility calibration of top_class and class_wise(c) gives the
        # very bits of the direct formulas: argmax confidence against 0/1
        # correctness, and column c against the indicator label == c
        def gap_sums(idx, values, hits, n_bins):
            order = np.lexsort((values, idx))
            bi, val = idx[order], values[order]
            starts = np.flatnonzero(
                np.concatenate(([True], (bi[1:] != bi[:-1]) | (val[1:] != val[:-1])))
            )
            prod = val[starts] * np.diff(np.concatenate((starts, [len(val)])))
            group_bin = bi[starts]
            bin_starts = np.flatnonzero(
                np.concatenate(([True], group_bin[1:] != group_bin[:-1]))
            )
            out = np.zeros(n_bins)
            out[group_bin[bin_starts]] = np.add.reduceat(prod, bin_starts)
            out -= np.bincount(idx[hits], minlength=n_bins)
            return out

        def binned(values, hits):
            edges = scheme.edges(values)
            idx = np.clip(
                np.searchsorted(edges, values, side="right") - 1, 0, len(edges) - 2
            )
            # the occupied bins, in order: an empty bin adds no term
            return np.abs(gap_sums(idx, values, hits, len(edges) - 1)[np.unique(idx)]).sum()

        scheme = BinScheme(kind, m)
        for seed in range(24):
            rng = np.random.default_rng(seed)
            n, C = int(rng.integers(1, 250)), int(rng.integers(2, 41))
            x = rng.random((n, C)) ** 3
            if seed % 2:  # repeated rows, at most 20 distinct
                x = x[rng.integers(0, min(n, 20), size=n)]
            probs = x / x.sum(axis=1, keepdims=True)
            d = LabeledPredictions(probs, rng.integers(0, C, size=n))
            i_star = probs.argmax(axis=1)
            want_tce = float(binned(probs[np.arange(n), i_star], d.labels == i_star) / n)
            want_cwe = 0.0
            for c in range(C):
                want_cwe += np.float64(1.0 / C) * binned(probs[:, c], d.labels == c) / n
            assert tce_binned(d, scheme) == want_tce
            assert cwe_binned(d, scheme) == float(want_cwe)
            assert accuracy(d) == float(np.mean(i_star == d.labels))

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 8, 15, 1000, 10**7])
    def test_equal_width_bins_match_the_linspace_edges(self, m):
        # each value's bin is the one searchsorted over np.linspace(0, 1,
        # m + 1) gives, at 0, 1, every j/m and every edge, and at the float
        # neighbours of each; at m = 10**7 every 997th j and the first and
        # last 5000
        edges = np.linspace(0.0, 1.0, m + 1)
        j = np.arange(m + 1)
        if m > 10**4:
            j = np.unique(np.concatenate((j[:5000], j[-5000:], j[::997])))
        at = np.concatenate(([0.0, 1.0], j / m, edges[j]))
        x = np.concatenate((at, np.nextafter(at, -np.inf), np.nextafter(at, np.inf)))
        want = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, m - 1)
        got = BinScheme("equal-width", m)._bin_of(np.sort(x), x)
        assert np.array_equal(got, want)

    def test_equal_width_memory_does_not_grow_with_bins(self):
        # only the occupied bins are built: cwe_binned at m = 10**7 peaks as
        # at m = 2, not at the 80 MB of 10**7 + 1 edges per class
        rng = np.random.default_rng(5)
        d = random_preds(rng, 50, 4)
        cwe_binned(d, BinScheme("equal-width", 2))  # warm the caches
        peaks = []
        for m in (2, 10**7):
            tracemalloc.start()
            try:
                cwe_binned(d, BinScheme("equal-width", m))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 1024

    @pytest.mark.parametrize("m", [2.5, 3.0, True, "3"])
    def test_bin_count_must_be_an_integer(self, m):
        # 2.5 failed inside the edge search with numpy's IndexError, and
        # True asked for one bin
        with pytest.raises(TypeError, match="m must be an integer"):
            BinScheme("equal-weight", m)

    def test_equal_weight_edges_merge_duplicates(self):
        vals = np.array([0.5] * 50 + [0.9] * 50)
        edges = BinScheme("equal-weight", 15).edges(vals)
        assert np.all(np.diff(edges) > 0)
        assert edges[0] == 0.5 and edges[-1] == 0.9

    @pytest.mark.parametrize("n", [1, 2, 7, 50])
    def test_equal_weight_edges_for_more_bins_than_values(self, n):
        # positions ceil(n*j/m) for m > n cover every index, as m = n does;
        # each m up to 3n is checked against the positions listed one by one
        vals = np.random.default_rng(n).random(n)
        s = np.sort(vals)
        for m in range(1, 3 * n + 1):
            positions = [-(-n * j // m) for j in range(1, m)]
            picked = s[np.array(positions, dtype=np.int64) - 1]
            want = np.unique(np.concatenate(([s[0]], picked, [s[-1]])))
            if len(want) == 1:
                want = np.array([want[0], want[0]])
            assert np.array_equal(BinScheme("equal-weight", m).edges(vals), want)
        at_n = BinScheme("equal-weight", n).edges(vals)
        tracemalloc.start()
        try:
            many = BinScheme("equal-weight", 10**7).edges(vals)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(many, at_n)
        assert peak < 1 << 20  # no per-bin storage


class TestScoreMetrics:
    def test_one_hot_correct(self):
        d = LabeledPredictions(np.eye(2), np.array([0, 1]))
        assert brier(d) == 0.0 and accuracy(d) == 1.0

    def test_half_half(self):
        d = LabeledPredictions(np.array([[0.5, 0.5]]), np.array([0]))
        assert brier(d) == pytest.approx(0.5, abs=1e-15)

    def test_brier_matches_double_loop(self):
        d = random_preds(np.random.default_rng(5), 50, 4)
        total = 0.0
        for i in range(d.n):
            for j in range(d.C):
                e = (1.0 if j == d.labels[i] else 0.0) - d.probs[i, j]
                total += e * e
        assert brier(d) == pytest.approx(total / d.n, abs=1e-12)

    def test_brier_of_a_law_is_bitwise_that_of_its_rows(self):
        # each pair's term repeated by its count sorts to the very array of
        # the n rows' terms, so the two sums share every bit
        golden = Path(__file__).parent / "golden" / "inputs"
        probs = load_predictions_csv(str(golden / "preds.csv"))
        samples = [LabeledPredictions(probs, load_labels_csv(str(golden / "labels.csv")))]
        for s in range(100):
            rng = derive_rng(95, s)
            n, C, S = (int(rng.integers(*r)) for r in ((40, 3000), (2, 13), (1, 40)))
            samples.append(gen_calibrated(n, C, S, seed=s)[0])
        for d in samples:
            law = group_sample(d)
            assert law.counts is not None and len(law.points) < d.n
            got = brier_matrix(law.pair_points(), law.labels, law.counts)
            assert got.hex() == brier(d).hex()

    def test_brier_blocks_match_one_whole_pass_bitwise(self):
        # 3 row blocks and a remainder, with and without counts
        rng = np.random.default_rng(7)
        n, C = 3 * estimators._ROW_BLOCK + 77, 9
        probs = tied_signed_rows(rng, n, C)
        labels = rng.integers(0, C, n)
        counts = rng.integers(1, 4, n).astype(np.float64)
        diff = probs.copy()
        diff[np.arange(n), labels] -= 1.0
        per_row = np.sum(diff * diff, axis=1)
        repeated = np.repeat(per_row, counts.astype(np.intp))
        for weights, terms in ((None, per_row), (counts, repeated)):
            want = float(np.sort(terms).sum() / len(terms))
            assert brier_matrix(probs, labels, weights).hex() == want.hex()

    def test_brier_memory_is_a_few_row_blocks(self):
        n, C = 20000, 50
        rng = np.random.default_rng(8)
        probs = random_preds(rng, n, C).probs
        labels = rng.integers(0, C, n)
        tracemalloc.start()
        try:
            brier_matrix(probs, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * estimators._ROW_BLOCK * C * 8 + 4 * n * 8

    @pytest.mark.parametrize("metric", ["accuracy", "tce_binned", "pool", "predicted"])
    def test_top_class_pass_copies_no_matrix(self, metric):
        # numpy copies a read-only matrix whole before its argmax; the rows
        # of a LabeledPredictions are read-only, so the argmax goes by blocks
        n, C = 20000, 50
        d = random_preds(np.random.default_rng(9), n, C)
        assert not d.probs.flags.writeable
        passes = {
            "accuracy": lambda: accuracy(d),
            "tce_binned": lambda: tce_binned(d, BinScheme()),
            "pool": lambda: uc_hat_pool(d, [UtilitySpec.top_class()]),
            "predicted": lambda: predicted_utility(UtilitySpec.top_class(), d.probs),
        }
        tracemalloc.start()
        try:
            passes[metric]()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * C * 8 / 2

    def test_ranges(self):
        d = random_preds(np.random.default_rng(2), 200, 5)
        assert 0.0 <= brier(d) <= 2.0
        assert 0.0 <= accuracy(d) <= 1.0


def acceptance_population(base, s, max_support=6):
    """The population and utility of acceptance criteria 05 (base 77) and 06
    (base 78) at seed s, with the stream they were drawn from."""
    rng = derive_rng(base, s)
    S = int(rng.integers(2, max_support + 1))
    dist = random_dist(rng, S, int(rng.integers(2, 6)))
    _, spec = random_instance(rng, n_max=1, c_max=dist.C)
    try:
        spec.check_dim(dist.C)
    except DomainError:
        spec = UtilitySpec.top_class()
    return dist, spec, rng


def exact_threshold_rules_risk(dist, spec, t0):
    """(risk_v, risk_best_monotone) in exact Fraction arithmetic on the
    law's float inputs, with the minimum over all 2U + 2 enumerated rules:
    1{v >= s} and 1{v > s} for each of the U support values s, all ones and
    all zeros."""
    v = predicted_utility(spec, dist.support)
    uvec = payoff_matrix(spec, dist.support)
    ideal = uvec >= t0
    cost = [
        [
            Fraction(dist.weights[i]) * Fraction(dist.cond_label[i, y])
            * abs(Fraction(uvec[i, y]) - Fraction(t0))
            for y in range(dist.C)
        ]
        for i in range(dist.S)
    ]

    def rule_risk(decide):
        return sum(
            (cost[i][y] for i in range(dist.S) for y in range(dist.C)
             if decide[i] != ideal[i, y]),
            Fraction(0),
        )

    rules = [np.ones(dist.S, dtype=bool), np.zeros(dist.S, dtype=bool)]
    for s in np.unique(v):
        rules += [v >= s, v > s]
    return rule_risk(v >= t0), min(rule_risk(d) for d in rules)


def dense_grid_dcu(dist, spec):
    """dcu_upper over one bin per width-sqrt(2 UC) cell of [-1, 1], occupied
    or not; None when UC is 0 or the grid has more than 1e6 cells."""
    uc = population_uc(dist, spec)
    width = np.sqrt(2.0 * uc)
    if uc <= 0.0 or np.ceil(2.0 / width) > 1e6:
        return None
    v = predicted_utility(spec, dist.support)
    expected_u = np.einsum(
        "ij,ij->i", dist.cond_label, payoff_matrix(spec, dist.support)
    )
    n_bins = int(np.ceil(2.0 / width))
    bin_of = np.clip(((v + 1.0) // width).astype(np.int64), 0, n_bins - 1)
    mass = np.bincount(bin_of, weights=dist.weights, minlength=n_bins)
    num = np.bincount(bin_of, weights=dist.weights * expected_u, minlength=n_bins)
    occupied = mass > 0
    g = np.zeros(n_bins)
    g[occupied] = num[occupied] / mass[occupied]
    return float(np.sum(dist.weights * np.abs(g[bin_of] - v)))


class TestPopulationUc:
    def test_two_point(self):
        assert population_uc(
            two_point_distribution(), UtilitySpec.top_class()
        ) == pytest.approx(0.2, abs=1e-15)

    def test_calibrated_zero(self):
        _, dist = gen_calibrated(10, 4, 5, seed=2)
        for spec in comb_pool(4):
            assert population_uc(dist, spec) == 0.0

    def test_matches_enumeration(self):
        # independent brute force over all interval pairs of support v values
        for seed in range(40):
            rng = np.random.default_rng(seed)
            dist = random_dist(rng, 4, 4)
            _, spec = random_instance(rng, n_max=2, c_max=4)
            if spec.family in ("class_wise", "top_k"):
                spec = UtilitySpec.class_wise(int(rng.integers(4)))
            try:
                spec.check_dim(4)
            except DomainError:
                spec = UtilitySpec.top_class()
            v = predicted_utility(spec, dist.support)
            uvec = payoff_matrix(spec, dist.support)
            rho = np.einsum(
                "ij,ij->i", dist.cond_label - dist.support, uvec
            ) * dist.weights
            vals = np.unique(v)
            best = 0.0
            for i in range(len(vals)):
                for j in range(i, len(vals)):
                    m = (v >= vals[i]) & (v <= vals[j])
                    best = max(best, abs(rho[m].sum()))
            assert population_uc(dist, spec) == pytest.approx(best, abs=1e-12)


class TestRiskGap:
    def test_calibrated_threshold_already_optimal(self):
        _, dist = gen_calibrated(10, 3, 4, seed=1)
        spec = UtilitySpec.top_class()
        res = risk_gap_check(dist, spec, t0=0.5)
        assert res.uc == 0.0
        assert res.risk_v <= res.risk_best_monotone + 1e-12
        assert res.holds

    def test_two_point_top_class(self):
        res = risk_gap_check(two_point_distribution(), UtilitySpec.top_class(), 0.5)
        assert res.holds
        assert res.uc == pytest.approx(0.2, abs=1e-15)

    def test_randomized(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            dist = random_dist(rng, int(rng.integers(2, 7)), int(rng.integers(2, 6)))
            _, spec = random_instance(rng, n_max=2, c_max=dist.C)
            try:
                spec.check_dim(dist.C)
            except DomainError:
                spec = UtilitySpec.top_class()
            t0 = float(rng.uniform(-1, 1))
            assert risk_gap_check(dist, spec, t0).holds

    @pytest.mark.parametrize("t0", [1.5, -1.5, float("nan")])
    def test_t0_domain(self, t0):
        with pytest.raises(DomainError):
            risk_gap_check(two_point_distribution(), UtilitySpec.top_class(), t0)

    @pytest.mark.parametrize("calibrated", [True, False])
    def test_fields_are_python_scalars(self, calibrated):
        dist = (
            gen_calibrated(10, 3, 4, seed=6)[1] if calibrated
            else two_point_distribution()
        )
        res = risk_gap_check(dist, UtilitySpec.top_class(), 0.5)
        assert (res.uc == 0.0) == calibrated
        fields = [type(x) for x in dataclasses.astuple(res)]
        assert fields == [float, float, float, bool]
        json.dumps(dataclasses.asdict(res))

    def test_distinct_rules_give_the_minimum_over_all_rules(self):
        # against exact arithmetic, on the populations of acceptance criteria
        # 05 and 06 and on the two-point law with t0 at a support point's v
        cases = []
        for base in (77, 78):
            for s in range(200):
                dist, spec, rng = acceptance_population(base, s)
                cases.append((dist, spec, float(rng.uniform(-1, 1))))
        cases.append((two_point_distribution(), UtilitySpec.top_class(), 0.45))
        assert predicted_utility(cases[-1][1], cases[-1][0].support)[0] == 0.45
        for dist, spec, t0 in cases:
            res = risk_gap_check(dist, spec, t0)
            want_v, want_best = exact_threshold_rules_risk(dist, spec, t0)
            assert abs(Fraction(res.risk_v) - want_v) <= 1e-15
            assert abs(Fraction(res.risk_best_monotone) - want_best) <= 1e-15
            assert res.uc == population_uc(dist, spec)
            exact_holds = want_v - want_best <= 2 * Fraction(res.uc) + Fraction(1e-12)
            assert res.holds == exact_holds

    def test_risks_bit_identical_under_support_permutation(self):
        for base in (77, 78):
            for s in range(200):
                dist, spec, rng = acceptance_population(base, s)
                t0 = float(rng.uniform(-1, 1))
                p = rng.permutation(dist.S)
                moved = FiniteDistribution(
                    dist.support[p], dist.weights[p], dist.cond_label[p]
                )
                assert risk_gap_check(moved, spec, t0) == risk_gap_check(dist, spec, t0)

    def test_large_support_is_fast(self):
        # every rule's risk from one sorted block table, not one pass per rule
        rng = np.random.default_rng(4000)
        dist = random_dist(rng, 4000, 10)
        spec = UtilitySpec.top_class()
        best = np.inf
        for _ in range(3):
            start = time.perf_counter()
            res = risk_gap_check(dist, spec, 0.3)
            best = min(best, time.perf_counter() - start)
        assert res.holds
        assert best < 0.05


class TestDcuBound:
    def test_calibrated_zero(self):
        _, dist = gen_calibrated(10, 3, 4, seed=6)
        res = dcu_bound_check(dist, UtilitySpec.top_class())
        assert res.dcu_upper == 0.0 and res.holds

    def test_two_point_values(self):
        res = dcu_bound_check(two_point_distribution(), UtilitySpec.top_class())
        assert res.bound == pytest.approx(2 * np.sqrt(0.4) + 0.2, abs=1e-12)
        # both support points share one bin of width sqrt(0.4); the bin mean
        # realized utility is 0.5, giving E|g - v| = 0.05 exactly
        assert res.dcu_upper == pytest.approx(0.05, abs=1e-12)
        assert res.holds

    def test_randomized(self):
        for seed in range(50):
            rng = np.random.default_rng(seed + 1000)
            dist = random_dist(rng, int(rng.integers(2, 7)), int(rng.integers(2, 6)))
            _, spec = random_instance(rng, n_max=2, c_max=dist.C)
            try:
                spec.check_dim(dist.C)
            except DomainError:
                spec = UtilitySpec.top_class()
            assert dcu_bound_check(dist, spec).holds

    @pytest.mark.parametrize("calibrated", [True, False])
    def test_fields_are_python_scalars(self, calibrated):
        dist = (
            gen_calibrated(10, 3, 4, seed=6)[1] if calibrated
            else two_point_distribution()
        )
        spec = UtilitySpec.top_class()
        assert (population_uc(dist, spec) == 0.0) == calibrated
        res = dcu_bound_check(dist, spec)
        assert [type(x) for x in dataclasses.astuple(res)] == [float, float, bool]
        json.dumps(dataclasses.asdict(res))

    def test_occupied_bins_match_the_dense_grid(self):
        # bit for bit, on the populations of acceptance criteria 05 and 06
        # whose grid has at most 1e6 cells
        compared = 0
        for base in (77, 78):
            for s in range(200):
                dist, spec, _ = acceptance_population(base, s)
                want = dense_grid_dcu(dist, spec)
                if want is None:
                    continue
                res = dcu_bound_check(dist, spec)
                uc = population_uc(dist, spec)
                assert res.dcu_upper == want
                assert res.bound == 2.0 * np.sqrt(2.0 * uc) + uc
                assert res.holds == (want <= res.bound + 1e-12)
                compared += 1
        assert compared >= 300

    def test_rounding_residue_uc_builds_no_grid(self):
        # top_k(C) pays 1 on every class, so UC is a rounding residue and the
        # width-sqrt(2 UC) grid of [-1, 1] would have about 1e8 cells
        dist = two_point_distribution()
        spec = UtilitySpec.top_k(3)
        assert 0.0 < population_uc(dist, spec) < 1e-15
        tracemalloc.start()
        try:
            res = dcu_bound_check(dist, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.holds
        assert peak < 1 << 20

    def test_grid_beyond_memory_holds(self):
        # UC = 5.8e-19: a dense grid would need about 1.9e9 cells
        dist, spec, _ = acceptance_population(77, 286, max_support=8)
        assert (dist.S, dist.C, spec.label()) == (6, 2, "top_k_2")
        assert 0.0 < population_uc(dist, spec) < 1e-18
        assert dcu_bound_check(dist, spec).holds


class TestMetricReport:
    def test_two_point_report(self):
        d = gen_two_point(20)
        report = evaluate_metrics(
            d,
            BinScheme("equal-width", 3),
            [("top_class", UtilitySpec.top_class())],
        )
        assert report.tce_binned == 0.0
        assert report.uc_per_utility["top_class"].value == pytest.approx(
            0.2, abs=1e-12
        )
        pool_max = max(uc_hat(d, s).value for s in comb_pool(3))
        assert report.uc_comb == pytest.approx(pool_max, abs=1e-15)

    def test_json_shape(self):
        d = gen_two_point(20)
        full = evaluate_metrics(d, utilities=[("tc", UtilitySpec.top_class())])
        j = full.to_json_dict()
        assert set(j) == {"accuracy", "brier", "tce_binned", "cwe_binned", "uc", "uc_comb"}
        assert set(j["uc"]["tc"]) == {"value", "lo", "hi", "sign"}
        empty = evaluate_metrics(d)
        assert "uc" not in empty.to_json_dict()

    def test_comb_requested_any_number_of_times(self):
        d = random_preds(np.random.default_rng(6), 300, 5)
        named = [(s.label(), s) for s in comb_pool(5)]
        extra = [("tc", UtilitySpec.top_class()), ("dcg", UtilitySpec.dcg(1.0))]
        reports = [
            evaluate_metrics(d, utilities=extra),
            evaluate_metrics(d, utilities=extra + named),
            evaluate_metrics(
                d, utilities=named + extra + [(n + "#1", s) for n, s in named]
            ),
        ]
        want_comb = max(uc_hat(d, s).value for s in comb_pool(5))
        for report in reports:
            assert report.uc_comb == want_comb
            for name, est in report.uc_per_utility.items():
                spec = dict(extra + named)[name.split("#")[0]]
                assert est == uc_hat(d, spec)
        assert len(reports[2].uc_per_utility) == 2 + 2 * len(named)

    def test_report_ranges(self):
        d = random_preds(np.random.default_rng(4), 200, 4)
        r = evaluate_metrics(d)
        assert 0 <= r.accuracy <= 1 and 0 <= r.brier <= 2
        assert r.tce_binned >= 0 and r.cwe_binned >= 0 and 0 <= r.uc_comb <= 2


class TestMiscalibratedSampling:
    def test_empirical_uc_approaches_population(self):
        dist = two_point_distribution()
        sample, _ = gen_miscalibrated(dist, 40000, seed=0)
        est = uc_hat(sample, UtilitySpec.top_class())
        assert est.value == pytest.approx(0.2, abs=0.02)

    def test_derive_rng_is_stable(self):
        a = derive_rng(5, 1).random(3)
        b = derive_rng(5, 1).random(3)
        assert np.array_equal(a, b)
