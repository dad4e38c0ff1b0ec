import math

import numpy as np
import pytest

from utilcal import (
    DomainError,
    EcdfResult,
    LabeledPredictions,
    UtilitySpec,
    dkw_band,
    ecdf_compare,
    ecdf_evaluate,
    gen_calibrated,
    uc_hat,
)
from utilcal.ecdf import write_ecdf_csv, write_ecdf_sidecar
from utilcal.utilities import derive_rng, sample_utility


class TestDkwBand:
    def test_closed_form_high_precision(self):
        import mpmath

        mpmath.mp.dps = 50
        expected = float(mpmath.sqrt(mpmath.log(40) / 3000))
        assert dkw_band(1500, 0.05) == pytest.approx(expected, abs=1e-12)
        assert dkw_band(1500, 0.05) == pytest.approx(0.03507, abs=5e-6)

    def test_boundary_delta_gives_unit_band(self):
        M = 2
        delta = 2.0 * math.exp(-2.0 * M)
        assert dkw_band(M, delta) == pytest.approx(1.0, abs=1e-12)

    def test_quadrupling_m_halves_band(self):
        assert dkw_band(100, 0.1) / dkw_band(400, 0.1) == pytest.approx(
            2.0, abs=1e-12
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            dkw_band(0, 0.05)
        with pytest.raises(DomainError):
            dkw_band(10, 0.0)
        with pytest.raises(DomainError):
            dkw_band(10, 1.0)


def perfect_predictor(n=30, C=4):
    probs = np.eye(C)[np.arange(n) % C]
    return LabeledPredictions(probs, np.arange(n) % C)


class TestEcdfEvaluate:
    def test_perfect_predictor_all_zero(self):
        res = ecdf_evaluate(perfect_predictor(), "linear", M=25, seed=0)
        assert np.all(res.errors == 0.0)
        assert res.cdf_at(0.0) == 1.0

    def test_single_utility(self):
        res = ecdf_evaluate(perfect_predictor(), "rank", M=1, seed=0)
        assert res.errors.shape == (1,)
        assert res.cdf_at(res.errors[0]) == 1.0
        assert res.cdf_at(res.errors[0] - 1e-9) == 0.0

    @pytest.mark.parametrize("n_calls", [1, 3])
    def test_rows_grouped_once_per_call(self, monkeypatch, n_calls):
        from utilcal import estimators

        calls = []
        grouped = estimators.distinct_rows

        def counting(probs):
            calls.append(1)
            return grouped(probs)

        monkeypatch.setattr(estimators, "distinct_rows", counting)
        d, _ = gen_calibrated(400, 5, 3, seed=2)
        for _ in range(n_calls):
            res = ecdf_evaluate(d, "linear", M=40, seed=7)
            assert res.errors.shape == (40,)
        assert len(calls) == n_calls

    def test_errors_replayable_from_kept_utilities(self):
        d, _ = gen_calibrated(300, 4, 3, seed=5)
        res = ecdf_evaluate(d, "rank", M=10, seed=3, keep_utilities=True)
        replayed = sorted(uc_hat(d, spec).value for spec in res.utilities)
        assert np.array_equal(res.errors, np.array(replayed))

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            ecdf_evaluate(perfect_predictor(), "decision", M=5, seed=0)

    def test_delta_and_keep_utilities_keyword_only(self):
        # an old positional worker count cannot bind to delta
        with pytest.raises(TypeError):
            ecdf_evaluate(perfect_predictor(), "linear", 5, 0, 2)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.5, math.nan])
    def test_bad_delta_fails_before_the_sweep(self, monkeypatch, delta):
        import utilcal.ecdf as ecdf_mod

        calls = []
        pool = ecdf_mod.uc_hat_pool

        def counting(law, specs):
            calls.append(1)
            return pool(law, specs)

        monkeypatch.setattr(ecdf_mod, "uc_hat_pool", counting)
        d, _ = gen_calibrated(200, 4, 3, seed=0)
        with pytest.raises(DomainError, match="delta"):
            ecdf_evaluate(d, "linear", M=300, seed=0, delta=delta)
        assert calls == []
        ecdf_evaluate(d, "linear", M=3, seed=0, delta=0.05)
        assert calls == [1]

    def test_band_attached(self):
        res = ecdf_evaluate(perfect_predictor(), "linear", M=100, seed=0, delta=0.05)
        assert res.band_halfwidth == pytest.approx(dkw_band(100, 0.05), abs=1e-15)

    def test_errors_in_range_and_sorted(self):
        d, _ = gen_calibrated(200, 4, 5, seed=8)
        res = ecdf_evaluate(d, "rank", M=30, seed=1)
        assert np.all(np.diff(res.errors) >= 0)
        assert np.all((res.errors >= 0) & (res.errors <= 2))


class TestEcdfResult:
    def test_m_and_band_derive_from_the_errors(self):
        res = EcdfResult(np.array([0.3, 0.1, 0.2]), "linear", seed=0, delta=0.05)
        assert res.M == 3 and res.band_halfwidth == dkw_band(3, 0.05)
        assert res.cdf_at(0.2) == 2 / 3
        assert EcdfResult(np.zeros(3), "linear", seed=0).band_halfwidth is None
        # neither can be passed: an old positional call would bind M to 5
        with pytest.raises(TypeError):
            EcdfResult(np.zeros(10), "linear", 5, 0)
        with pytest.raises(TypeError):
            EcdfResult(np.zeros(10), "linear", M=5, seed=0)
        with pytest.raises(DomainError):  # cdf_at divides by M
            EcdfResult(np.zeros(0), "linear", seed=0)


class TestEcdfCompare:
    def test_identical(self):
        d, _ = gen_calibrated(100, 3, 2, seed=0)
        a = ecdf_evaluate(d, "linear", M=20, seed=4)
        out = ecdf_compare(a, a)
        assert out.sup_distance == 0.0 and out.l2_distance == 0.0

    def test_extreme_step_functions(self):
        zeros = EcdfResult(np.zeros(10), "linear", seed=0)
        twos = EcdfResult(np.full(10, 2.0), "linear", seed=0)
        out = ecdf_compare(zeros, twos)
        assert out.sup_distance == 1.0
        assert out.l2_distance == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_family_mismatch(self):
        a = EcdfResult(np.zeros(3), "linear", seed=0)
        b = EcdfResult(np.zeros(3), "rank", seed=0)
        with pytest.raises(DomainError):
            ecdf_compare(a, b)

    def test_l2_bounded_by_sup(self):
        d, _ = gen_calibrated(300, 4, 3, seed=1)
        a = ecdf_evaluate(d, "rank", M=25, seed=10)
        b = ecdf_evaluate(d, "rank", M=25, seed=11)
        out = ecdf_compare(a, b)
        # |F-G| <= sup on [0,2] so the L2 norm is at most sup * sqrt(2)
        assert out.l2_distance <= out.sup_distance * math.sqrt(2.0) + 1e-12


class TestMonotoneRefinement:
    def test_appending_never_drops_cdf_by_more_than_inverse_m(self):
        rng = np.random.default_rng(3)
        errors = np.sort(rng.uniform(0, 2, 40))
        extra = rng.uniform(0, 2, 1)
        old = EcdfResult(errors, "linear", seed=0)
        new = EcdfResult(np.concatenate([errors, extra]), "linear", seed=0)
        grid = np.linspace(0, 2, 401)
        drop = np.max(old.cdf_at(grid) - new.cdf_at(grid))
        assert drop <= 1.0 / 40 + 1e-15


class TestCsvOutput:
    def test_csv_and_sidecar(self, tmp_path):
        d, _ = gen_calibrated(100, 3, 2, seed=0)
        res = ecdf_evaluate(d, "linear", M=5, seed=1, delta=0.05)
        csv_path = tmp_path / "ecdf.csv"
        write_ecdf_csv(csv_path, res)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "error,cdf"
        assert len(lines) == 6
        last_err, last_cdf = lines[-1].split(",")
        assert float(last_cdf) == 1.0
        assert float(last_err) == res.errors[-1]
        sidecar = tmp_path / "ecdf.csv.json"
        write_ecdf_sidecar(sidecar, res)
        import json

        meta = json.loads(sidecar.read_text())
        assert meta["family"] == "linear" and meta["M"] == 5
        assert meta["band_halfwidth"] == pytest.approx(dkw_band(5, 0.05), abs=1e-15)


class TestCalibratedQuantileBound:
    def test_95_quantile_under_estimation_rate(self):
        # On perfectly calibrated data the true error is 0 for every utility,
        # so each sampled error obeys the n^(-1/2) estimation bound with
        # failure probability 0.01; the 0.95 quantile then sits below the
        # bound in nearly every run.
        n, C, M = 50_000, 10, 200
        bound = 16.0 / math.sqrt(n) + 4.0 * math.sqrt(math.log(100.0) / (2.0 * n))
        good = 0
        seeds = 100
        for s in range(seeds):
            d, _ = gen_calibrated(n, C, 20, seed=s)
            res = ecdf_evaluate(d, "linear", M=M, seed=s)
            q95 = res.errors[int(math.ceil(0.95 * M)) - 1]
            good += q95 <= bound
        assert good >= 95
