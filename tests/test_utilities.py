import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from utilcal import (
    DomainError,
    ParseError,
    UtilitySpec,
    comb_pool,
    derive_rng,
    eval_utility,
    gain_matrix_aligned,
    gain_matrix_misaligned,
    rank_of,
    sample_decision,
    sample_linear,
    sample_rank,
)
from utilcal.utilities import as_float


def random_simplex(rng, C):
    e = -np.log1p(-rng.random(C))
    return e / e.sum()


class TestRankOf:
    def test_strictly_sorted(self):
        assert rank_of(np.array([0.5, 0.3, 0.2])).tolist() == [1, 2, 3]

    def test_tie_broken_by_index(self):
        assert rank_of(np.array([0.25, 0.25, 0.5])).tolist() == [2, 3, 1]

    def test_uniform_all_tied(self):
        assert rank_of(np.full(4, 0.25)).tolist() == [1, 2, 3, 4]

    @given(st.integers(0, 10**6), st.integers(2, 12))
    def test_bijection(self, seed, C):
        p = random_simplex(np.random.default_rng(seed), C)
        assert sorted(rank_of(p)) == list(range(1, C + 1))


class TestEvalUtility:
    def test_linear(self):
        out = eval_utility(
            UtilitySpec.linear([1.0, -1.0, 0.0]), np.array([0.5, 0.3, 0.2])
        )
        assert out.uvec.tolist() == [1.0, -1.0, 0.0]
        assert out.v == pytest.approx(0.2, abs=1e-15)

    def test_top_k(self):
        out = eval_utility(UtilitySpec.top_k(2), np.array([0.5, 0.3, 0.2]))
        assert out.uvec.tolist() == [1.0, 1.0, 0.0]
        assert out.v == pytest.approx(0.8, abs=1e-15)

    def test_top_class(self):
        out = eval_utility(UtilitySpec.top_class(), np.array([0.2, 0.5, 0.3]))
        assert out.uvec.tolist() == [0.0, 1.0, 0.0]
        assert out.v == pytest.approx(0.5, abs=1e-15)

    def test_dcg_against_high_precision_log(self):
        import mpmath

        mpmath.mp.dps = 50
        p = [0.5, 0.3, 0.2]
        expected = float(
            mpmath.mpf("0.5") * 1
            + mpmath.mpf("0.3") / mpmath.log(3, 2)
            + mpmath.mpf("0.2") * mpmath.mpf("0.5")
        )
        out = eval_utility(UtilitySpec.dcg(1.0), np.array(p))
        assert out.v == pytest.approx(expected, abs=1e-14)

    def test_decision_enumerates_actions(self):
        loss = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = eval_utility(UtilitySpec.decision(loss), np.array([0.7, 0.3]))
        # expected losses are 0.3 (action 0) vs 0.7 (action 1)
        assert out.uvec.tolist() == [0.0, -1.0]
        assert out.v == pytest.approx(-0.3, abs=1e-15)

    def test_decision_v_is_negated_min_over_enumerated_actions(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            C, K = int(rng.integers(2, 6)), int(rng.integers(2, 5))
            loss = rng.uniform(-1, 1, (C, K))
            p = random_simplex(rng, C)
            out = eval_utility(UtilitySpec.decision(loss), p)
            best = min(float(p @ loss[:, a]) for a in range(K))
            assert out.v == pytest.approx(-best, abs=1e-12)

    def test_decision_tie_goes_to_first_action(self):
        loss = np.array([[0.5, 0.5], [0.5, 0.5]])
        out = eval_utility(UtilitySpec.decision(loss), np.array([0.6, 0.4]))
        assert out.uvec.tolist() == [-0.5, -0.5]

    def test_gain_matrix(self):
        gain = np.array([[1.0, 0.2], [0.0, 1.0]])
        p = np.array([0.3, 0.7])
        out = eval_utility(UtilitySpec.gain_matrix(gain), p)
        # column scores: 0.3 vs 0.76 -> pick column 1
        assert out.uvec.tolist() == [0.2, 1.0]
        assert out.v == pytest.approx(0.3 * 0.2 + 0.7 * 1.0, abs=1e-15)

    def test_similarity(self):
        sim = np.array([[1.0, 0.5], [0.5, 1.0]])
        p = np.array([0.6, 0.4])
        out = eval_utility(UtilitySpec.similarity(sim), p)
        assert out.uvec == pytest.approx(p @ sim, abs=1e-15)
        assert out.v == pytest.approx(p @ sim @ p, abs=1e-15)

    def test_rank_constant_theta_is_constant(self):
        spec = UtilitySpec.rank(np.ones(4))
        for seed in range(5):
            p = random_simplex(np.random.default_rng(seed), 4)
            assert eval_utility(spec, p).v == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            eval_utility(UtilitySpec.linear([1.0, 0.0]), np.array([0.5, 0.3, 0.2]))
        with pytest.raises(DomainError):
            eval_utility(UtilitySpec.class_wise(5), np.array([0.5, 0.5]))

    def test_pure_function(self):
        spec = UtilitySpec.dcg(1.25)
        p = random_simplex(np.random.default_rng(0), 6)
        a = eval_utility(spec, p)
        b = eval_utility(spec, p)
        assert np.array_equal(a.uvec, b.uvec) and a.v == b.v

    @given(st.integers(0, 10**6), st.integers(2, 8), st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_payoffs_bounded_and_v_consistent(self, seed, C, which):
        rng = np.random.default_rng(seed)
        p = random_simplex(rng, C)
        specs = [
            UtilitySpec.top_class(),
            UtilitySpec.class_wise(int(rng.integers(C))),
            UtilitySpec.top_k(int(rng.integers(1, C + 1))),
            sample_rank(C, rng),
            sample_linear(C, rng),
            UtilitySpec.dcg(float(rng.uniform(0.5, 2.0))),
            sample_decision(C, 3, rng),
            gain_matrix_aligned(C, rng),
            UtilitySpec.similarity(np.eye(C)),
        ]
        out = eval_utility(specs[which], p)
        assert np.all(out.uvec >= -1.0 - 1e-12) and np.all(out.uvec <= 1.0 + 1e-12)
        assert out.v == pytest.approx(float(p @ out.uvec), abs=1e-12)

    def test_top_k_has_exactly_k_ones(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            C = int(rng.integers(2, 9))
            k = int(rng.integers(1, C + 1))
            out = eval_utility(UtilitySpec.top_k(k), random_simplex(rng, C))
            assert out.uvec.sum() == k

    def test_top_k_full_is_constant_one(self):
        for seed in range(5):
            p = random_simplex(np.random.default_rng(seed), 5)
            out = eval_utility(UtilitySpec.top_k(5), p)
            assert np.all(out.uvec == 1.0)
            assert out.v == pytest.approx(1.0, abs=1e-12)


class TestSamplers:
    def test_linear_sup_norm_exactly_one(self):
        for m in range(50):
            spec = sample_linear(4, derive_rng(3, m))
            assert np.max(np.abs(spec.a)) == 1.0

    def test_linear_deterministic_stream(self):
        a = sample_linear(3, derive_rng(7, 5)).a
        b = sample_linear(3, derive_rng(7, 5)).a
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed, key", [(-1, ()), (0, (-1,)), (3, (2, -5))])
    def test_negative_seed_or_key_rejected(self, seed, key):
        with pytest.raises(DomainError):
            derive_rng(seed, *key)

    def test_linear_face_frequencies(self):
        # 2C faces, each hit with frequency 1/6 within 3 sigma
        N = 100_000
        counts = np.zeros(6)
        rng = derive_rng(123)
        for _ in range(N):
            a = sample_linear(3, rng).a
            i = int(np.argmax(np.abs(a) == 1.0))
            counts[2 * i + (0 if a[i] == 1.0 else 1)] += 1
        sigma = np.sqrt((1 / 6) * (5 / 6) / N)
        assert np.all(np.abs(counts / N - 1 / 6) < 3 * sigma)

    def test_rank_sorted_and_normalized(self):
        for m in range(50):
            theta = sample_rank(5, derive_rng(4, m)).theta
            assert np.all(np.diff(theta) <= 0)
            assert np.max(np.abs(theta)) == 1.0

    def test_rank_sorting_example(self):
        assert np.sort(np.array([-1.0, 0.4]))[::-1].tolist() == [0.4, -1.0]

    def test_decision_zero_loss_is_null_utility(self):
        spec = UtilitySpec.decision(np.zeros((3, 2)))
        out = eval_utility(spec, np.array([0.2, 0.3, 0.5]))
        assert np.all(out.uvec == 0.0) and out.v == 0.0

    def test_decision_sampling(self):
        a = sample_decision(3, 4, derive_rng(0, 0)).loss
        b = sample_decision(3, 4, derive_rng(0, 1)).loss
        assert np.all(np.abs(a) <= 1.0)
        assert not np.array_equal(a, b)


class TestGainMatrices:
    def test_aligned_ranges(self):
        R = gain_matrix_aligned(5, derive_rng(9)).gain
        off = R[~np.eye(5, dtype=bool)]
        assert np.all((off > 0.0) & (off < 0.1))
        assert np.all(np.diag(R) == 1.0)

    def test_misaligned_block(self):
        R = gain_matrix_misaligned(3, [[1, 2]], derive_rng(0)).gain
        assert R[0].tolist() == [1.0, 0.2, 0.2]
        assert np.all(np.diag(R) == 1.0)

    def test_misaligned_zero_outside_block(self):
        R = gain_matrix_misaligned(4, [[1]], derive_rng(0)).gain
        assert R[0, 2] == 0.0 and R[0, 3] == 0.0 and R[0, 1] == 0.2

    def test_overlapping_blocks_rejected(self):
        with pytest.raises(DomainError):
            gain_matrix_misaligned(4, [[0, 1], [1, 2]], derive_rng(0))


class TestCombPool:
    def test_enumeration_order(self):
        labels = [s.label() for s in comb_pool(2)]
        assert labels == ["class_wise_0", "class_wise_1", "top_k_1", "top_k_2"]

    def test_size(self):
        assert len(comb_pool(7)) == 14

    def test_dcg_grid(self):
        from utilcal.utilities import DCG_GAMMA_GRID, dcg_pool

        pool = dcg_pool()
        assert [s.gamma for s in pool] == list(DCG_GAMMA_GRID)


class TestJsonRoundtrip:
    @pytest.mark.parametrize(
        "spec",
        [
            UtilitySpec.top_class(),
            UtilitySpec.class_wise(2),
            UtilitySpec.top_k(3),
            UtilitySpec.rank([0.5, 0.1, -0.2]),
            UtilitySpec.linear([1.0, -1.0, 0.0]),
            UtilitySpec.dcg(1.25),
            UtilitySpec.decision([[0.1, -0.2], [0.3, 0.4]]),
            UtilitySpec.gain_matrix([[1.0, 0.05], [0.08, 1.0]]),
            UtilitySpec.similarity([[1.0, -0.3], [-0.3, 1.0]]),
        ],
        ids=lambda s: s.label(),
    )
    def test_roundtrip(self, spec):
        again = UtilitySpec.from_json_dict(spec.to_json_dict())
        assert again.family == spec.family
        C = self._dim(spec, fallback=3)
        p = random_simplex(np.random.default_rng(1), C)
        a = eval_utility(spec, p)
        b = eval_utility(again, p)
        assert np.array_equal(a.uvec, b.uvec) and a.v == b.v

    @staticmethod
    def _dim(spec, fallback):
        for attr in ("theta", "a", "loss", "gain", "sim"):
            val = getattr(spec, attr)
            if val is not None:
                return val.shape[0]
        return fallback

    def test_param_field_names(self):
        assert UtilitySpec.class_wise(1).to_json_dict()["params"] == {"c": 1}
        assert UtilitySpec.top_k(2).to_json_dict()["params"] == {"k": 2}
        assert "gamma" in UtilitySpec.dcg(1.0).to_json_dict()["params"]
        assert "theta" in UtilitySpec.rank([0.0, 0.0]).to_json_dict()["params"]
        assert "a" in UtilitySpec.linear([0.0, 0.0]).to_json_dict()["params"]
        assert "loss" in UtilitySpec.decision([[0.0], [0.0]]).to_json_dict()["params"]
        assert "gain" in UtilitySpec.gain_matrix([[1.0, 0.0], [0.0, 1.0]]).to_json_dict()["params"]
        assert "sim" in UtilitySpec.similarity([[1.0, 0.0], [0.0, 1.0]]).to_json_dict()["params"]


    @pytest.mark.parametrize(
        "d",
        [
            {"family": "top_k", "params": {"k": 2, "kk": 3}},
            {"family": "top_class", "params": {"c": 0}},
            {"family": "class_wise", "params": [1]},
            {"family": "top_k", "params": {"k": "two"}},
            {"family": "linear", "params": {"a": ["x", 0.0]}},
            {"family": "class_wise", "params": {"c": 1.5}},
            {"family": "top_k", "params": {"k": 1.5}},
            {"family": "top_k", "params": {"k": True}},
        ],
    )
    def test_bad_params_parse_error(self, d):
        with pytest.raises(ParseError):
            UtilitySpec.from_json_dict(d)


class TestSpecKey:
    def test_equal_parameters_equal_keys(self):
        a = np.array([0.5, -0.25, 1.0])
        assert UtilitySpec.linear(a).key() == UtilitySpec.linear(a.copy()).key()
        assert UtilitySpec.top_k(2).key() == UtilitySpec.top_k(2).key()
        assert UtilitySpec.dcg(1.0).key() == UtilitySpec.dcg(1.0).key()

    def test_distinct_utilities_distinct_keys(self):
        a = [0.5, -0.25, 1.0]
        keys = {
            UtilitySpec.linear(a).key(),
            UtilitySpec.rank(sorted(a, reverse=True)).key(),
            UtilitySpec.linear([0.5, -0.25, 0.75]).key(),
            UtilitySpec.class_wise(2).key(),
            UtilitySpec.top_k(2).key(),
            UtilitySpec.dcg(1.25).key(),
            UtilitySpec.decision([[0.1, 0.2, 0.3]] * 2).key(),
            UtilitySpec.decision([[0.1, 0.2]] * 3).key(),
        }
        assert len(keys) == 8

    @pytest.mark.parametrize(
        "make",
        [
            UtilitySpec.linear,
            UtilitySpec.rank,
            lambda x: UtilitySpec.decision([x, x]),
            lambda x: UtilitySpec.gain_matrix([[1.0, abs(x[1])], [abs(x[1]), 1.0]]),
            lambda x: UtilitySpec.similarity([[1.0, x[1]], [x[1], 1.0]]),
        ],
        ids=["linear", "rank", "decision", "gain_matrix", "similarity"],
    )
    def test_equality_and_hash_follow_key(self, make):
        a, b = make([0.5, -1.0]), make(np.array([0.5, -1.0]))
        assert a == b and hash(a) == hash(b)
        assert a != make([0.5, -0.75])
        assert a != UtilitySpec.top_class() and a != a.key()

    def test_patch_sequence_json_round_trip_compares_equal(self):
        from utilcal.patching import PatchRecord, PatchSequence

        rec = PatchRecord(UtilitySpec.linear([0.5, -1.0, 0.0]), 0.1, 0.4, -1, 0.25)
        seq = PatchSequence((rec,), 3)
        assert seq == PatchSequence.from_json_dict(seq.to_json_dict())


class TestSpecValidation:
    def test_range_checks(self):
        with pytest.raises(DomainError):
            UtilitySpec.linear([1.5, 0.0])
        with pytest.raises(DomainError):
            UtilitySpec.gain_matrix([[1.0, 0.5], [0.5, 0.9]])  # diagonal not 1
        with pytest.raises(DomainError):
            UtilitySpec.dcg(-1.0)
        with pytest.raises(DomainError):
            UtilitySpec("no_such_family")

    @pytest.mark.parametrize(
        "make",
        [
            lambda: UtilitySpec.linear([np.nan, 0.0]),
            lambda: UtilitySpec.rank([np.nan, 0.0]),
            lambda: UtilitySpec.decision([[0.1], [np.nan]]),
            lambda: UtilitySpec.similarity([[1.0, np.nan], [np.nan, 1.0]]),
            lambda: UtilitySpec.dcg(np.nan),
            lambda: UtilitySpec.dcg(np.inf),
        ],
    )
    def test_non_finite_parameters_rejected(self, make):
        with pytest.raises(DomainError):
            make()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"family": "top_class", "c": 3},
            {"family": "top_class", "gamma": 0.5},
            {"family": "dcg", "gamma": 1.0, "k": 2},
            {"family": "linear", "a": [0.5, -0.5], "theta": [1.0, 0.0]},
        ],
    )
    def test_foreign_parameter_rejected(self, kwargs):
        # a stray field would make == disagree with key(), label() and JSON
        with pytest.raises(DomainError, match="takes no parameter"):
            UtilitySpec(**kwargs)

    def test_integer_beyond_the_float_range_reads_as_inf(self):
        # as JSON's 1e400 does; float() raised OverflowError, a traceback
        # in the CLI
        assert as_float("x", 10**400) == math.inf
        assert as_float("x", -(10**400)) == -math.inf
        assert as_float("x", 3) == 3.0

    def test_non_integer_index_type_error(self):
        with pytest.raises(TypeError):
            UtilitySpec.class_wise(1.5)
        with pytest.raises(TypeError):
            UtilitySpec.top_k(2.5)
