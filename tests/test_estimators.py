import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from utilcal import (
    BinScheme,
    DomainError,
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
from utilcal.estimators import (
    distinct_rows,
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
    from utilcal import FiniteDistribution

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
        calls = {"predicted": 0, "ranks": 0}
        predicted, label_ranks = estimators.predicted_utility, estimators._label_ranks

        def count_predicted(spec, probs):
            calls["predicted"] += 1
            return predicted(spec, probs)

        def count_ranks(probs, labels):
            calls["ranks"] += 1
            return label_ranks(probs, labels)

        monkeypatch.setattr(estimators, "predicted_utility", count_predicted)
        monkeypatch.setattr(estimators, "_label_ranks", count_ranks)
        a = np.linspace(-1.0, 1.0, 5)
        pool = comb_pool(5) + dcg_pool() + comb_pool(5) + [
            UtilitySpec.linear(a), UtilitySpec.linear(a.copy()),
        ]
        got = uc_hat_pool(d, pool)
        assert calls == {"predicted": 10 + 6 + 1, "ranks": 1}
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
        # sha256 of the estimates the per-row estimator gave before rows
        # were grouped; every row here is distinct
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
            "1b7ba59114b132f9f8e19f9d8829f51d29dab4063c551f8231b4a8cc83c0bcbc"
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
    # signed zeros, tiny terms and large terms that cancel exactly: the sum
    # of one block depends on its addend order
    v = rng.uniform(0.5, 1.0, 30)[rng.integers(0, 30, 4000)]
    r = rng.choice([0.0, -0.0, 1e-17, -1e-17, 1e16, -1e16, 1.0, -0.5], 4000)
    return v, r


class TestMergeTies:
    @pytest.mark.parametrize(
        "case",
        ["continuous", "20-distinct-rows", "small-blocks", "top_k_C",
         "cancelling-residuals"],
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
        # n not a multiple of 4: a matrix-vector product rounds a row by
        # its position, so equal rows are evaluated once each, not per row
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
            return np.abs(gap_sums(idx, values, hits, len(edges) - 1)).sum()

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


def all_threshold_rules_risk(dist, spec, t0):
    """(risk_v, risk_best_monotone) with the minimum over all 2U + 2
    enumerated rules: 1{v >= s} and 1{v > s} for each of the U support
    values s, all ones and all zeros."""
    v = predicted_utility(spec, dist.support)
    uvec = payoff_matrix(spec, dist.support)
    ideal = uvec >= t0
    mass = dist.weights[:, None] * dist.cond_label
    penalty = np.abs(uvec - t0)

    def rule_risk(decide):
        return float((mass * penalty * (decide[:, None] != ideal)).sum())

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

    def test_t0_domain(self):
        with pytest.raises(DomainError):
            risk_gap_check(two_point_distribution(), UtilitySpec.top_class(), 1.5)

    def test_distinct_rules_give_the_minimum_over_all_rules(self):
        # bit for bit, on the populations of acceptance criteria 05 and 06
        for base in (77, 78):
            for s in range(200):
                dist, spec, rng = acceptance_population(base, s)
                t0 = float(rng.uniform(-1, 1))
                res = risk_gap_check(dist, spec, t0)
                want_v, want_best = all_threshold_rules_risk(dist, spec, t0)
                assert res.risk_v == want_v
                assert res.risk_best_monotone == want_best
                assert res.uc == population_uc(dist, spec)


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
