"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the test names themselves mirror the criteria.
"""

import json
import math
import time

import numpy as np
import pytest

from utilcal import (
    BinScheme,
    FiniteDistribution,
    LabeledPredictions,
    UtilitySpec,
    comb_pool,
    cwe_binned,
    dcu_bound_check,
    dkw_band,
    ecdf_compare,
    ecdf_evaluate,
    fit,
    gen_calibrated,
    gen_miscalibrated,
    gen_two_point,
    population_uc,
    risk_gap_check,
    tce_binned,
    transform,
    uc_hat,
)
from utilcal.cli import main
from utilcal.estimators import oracle_trials, random_instance
from utilcal.patching import project_simplex_rows
from utilcal.utilities import derive_rng, sample_linear


def _report(k: int, message: str) -> None:
    print(f"ACCEPTANCE {k:02d} PASS: {message}", flush=True)


def random_dist(rng, S, C):
    sup = -np.log1p(-rng.random((S, C)))
    sup /= sup.sum(axis=1, keepdims=True)
    q = -np.log1p(-rng.random((S, C)))
    q /= q.sum(axis=1, keepdims=True)
    w = -np.log1p(-rng.random(S))
    w /= w.sum()
    return FiniteDistribution(sup, w, q)


def random_utility(rng, C):
    _, spec = random_instance(rng, n_max=1, c_max=C)
    try:
        spec.check_dim(C)
    except Exception:
        spec = UtilitySpec.top_class()
    return spec


def test_criterion_01_two_point_counterexample_exact():
    d = gen_two_point(20)
    scheme = BinScheme("equal-width", 3)
    spec = UtilitySpec.top_class()
    tce_binned(d, scheme)  # warm-up
    uc_hat(d, spec)
    best = math.inf
    for _ in range(20):
        t0 = time.perf_counter()
        tce = tce_binned(d, scheme)
        est = uc_hat(d, spec)
        best = min(best, time.perf_counter() - t0)
    assert tce == 0.0
    assert abs(est.value - 0.2) <= 1e-12
    assert best < 1e-3
    _report(1, f"tce=0 exactly, uc=0.2±1e-12, {best * 1e6:.0f} us per evaluation")


def test_criterion_02_oracle_equivalence_1000_instances():
    t0 = time.perf_counter()
    max_diff, failures = oracle_trials(1000, n_max=200, c_max=8, seed=2024)
    elapsed = time.perf_counter() - t0
    assert failures == []
    assert max_diff <= 1e-12
    assert elapsed < 30.0
    _report(2, f"1000 instances, max |uc_hat - oracle| = {max_diff:.2e}, {elapsed:.1f}s")


def test_criterion_03_concentration_on_calibrated_data():
    t0 = time.perf_counter()
    delta = 0.01
    counts = {}
    for n in (10**3, 10**4, 10**5):
        bound = 16.0 / math.sqrt(n) + 4.0 * math.sqrt(math.log(1 / delta) / (2 * n))
        good = 0
        for s in range(100):
            d, _ = gen_calibrated(n, 10, 20, seed=s)
            spec = sample_linear(10, derive_rng(s, 10**6))
            good += uc_hat(d, spec).value <= bound
        counts[n] = good
        assert good >= 99, f"n={n}: only {good}/100 under the bound"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(3, f"within bound in {counts} of 100 seeds, {elapsed:.1f}s")


def test_criterion_04_domination_bounds():
    t0 = time.perf_counter()
    for s in range(100):
        rng = np.random.default_rng(s)
        n = int(rng.integers(50, 400))
        C = int(rng.integers(2, 7))
        e = -np.log1p(-rng.random((n, C)))
        d = LabeledPredictions(e / e.sum(axis=1, keepdims=True),
                               rng.integers(0, C, n))
        uc_top = uc_hat(d, UtilitySpec.top_class()).value
        uc_cw = [uc_hat(d, UtilitySpec.class_wise(c)).value for c in range(C)]
        for m in (5, 15):
            for kind in ("equal-weight", "equal-width"):
                scheme = BinScheme(kind, m)
                assert tce_binned(d, scheme) <= m * uc_top + 1e-12
                assert cwe_binned(d, scheme) <= m * np.mean(uc_cw) + 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(4, f"100 datasets x m in (5, 15), both bin kinds, {elapsed:.1f}s")


def test_criterion_05_utility_risk_gap_exact():
    t0 = time.perf_counter()
    for s in range(200):
        rng = derive_rng(77, s)
        dist = random_dist(rng, int(rng.integers(2, 7)), int(rng.integers(2, 6)))
        spec = random_utility(rng, dist.C)
        t0_thr = float(rng.uniform(-1, 1))
        res = risk_gap_check(dist, spec, t0_thr)
        assert res.holds, f"seed {s}: gap {res.risk_v - res.risk_best_monotone} vs 2*UC {2 * res.uc}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(5, f"200 distributions, threshold gap <= 2*UC always, {elapsed:.1f}s")


def test_criterion_06_uc_bounds_dcu_exact():
    t0 = time.perf_counter()
    for s in range(200):
        rng = derive_rng(78, s)
        dist = random_dist(rng, int(rng.integers(2, 7)), int(rng.integers(2, 6)))
        spec = random_utility(rng, dist.C)
        res = dcu_bound_check(dist, spec)
        assert res.holds, f"seed {s}: {res.dcu_upper} > {res.bound}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(6, f"200 distributions, E|g_W - v| <= 2*sqrt(2*UC)+UC always, {elapsed:.1f}s")


def test_criterion_07_patching_convergence():
    t0 = time.perf_counter()
    eps = 0.05
    for i in range(20):
        C = 3 if i % 2 == 0 else 10
        dist = random_dist(derive_rng(500, i), 4, C)
        d, _ = gen_miscalibrated(dist, 5000, seed=i)
        seq = fit(d, epsilon=eps)
        cap = math.ceil(2 * C / eps**2) + 1
        assert len(seq.records) <= cap
        for h in seq.history:
            assert h.err > eps
            assert h.brier_before - h.brier_after >= h.err**2 / C - 1e-10
        out = transform(d, seq)
        final = max(uc_hat(out, u).value for u in comb_pool(C))
        assert final <= eps
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(7, f"20 runs: per-step decrease, halting cap, final pool error <= {eps}, {elapsed:.1f}s")


def test_criterion_08_projection_kkt_and_nonexpansive():
    rng = derive_rng(88)
    total = 0
    for C in (2, 3, 5, 10):
        X = rng.uniform(-3, 3, size=(2500, C))
        out = project_simplex_rows(X)
        total += len(X)
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) <= 1e-10
        assert np.min(out) >= 0.0
        tau = np.max(X - out, axis=1)
        assert np.max(np.abs(out - np.maximum(X - tau[:, None], 0.0))) <= 1e-10
        y = rng.dirichlet(np.ones(C), size=len(X))
        d_out = np.linalg.norm(y - out, axis=1)
        d_in = np.linalg.norm(y - X, axis=1)
        assert np.all(d_out <= d_in + 1e-10)
    assert total == 10**4
    _report(8, "10^4 projections satisfy KKT and non-expansiveness at 1e-10")


def test_criterion_09_dkw_band_and_two_sample_closeness():
    import mpmath

    mpmath.mp.dps = 50
    expected = float(mpmath.sqrt(mpmath.log(40) / 3000))
    assert abs(dkw_band(1500, 0.05) - expected) <= 1e-12

    t0 = time.perf_counter()
    M = 200
    band = dkw_band(M, 0.05)
    good = 0
    for s in range(100):
        d, _ = gen_calibrated(1500, 5, 10, seed=s)
        a = ecdf_evaluate(d, "linear", M=M, seed=2 * s)
        b = ecdf_evaluate(d, "linear", M=M, seed=2 * s + 1)
        good += ecdf_compare(a, b).sup_distance <= 2 * band
    elapsed = time.perf_counter() - t0
    assert good >= 95, f"only {good}/100 within 2*band"
    assert elapsed < 120.0
    _report(9, f"band exact to 1e-12; sup <= 2*band in {good}/100 seeds, {elapsed:.1f}s")


def test_criterion_10_scalability():
    n, C = 100_000, 1000
    d, _ = gen_calibrated(n, C, 50, seed=1)
    spec = sample_linear(C, derive_rng(0, 0))
    uc_hat(d, spec)  # warm-up
    t0 = time.perf_counter()
    uc_hat(d, spec)
    single = time.perf_counter() - t0
    assert single < 5.0

    t0 = time.perf_counter()
    ecdf_evaluate(d, "linear", M=200, seed=3)
    sweep = time.perf_counter() - t0
    assert sweep < 300.0
    _report(10, f"uc_hat n=1e5 C=1000 in {single:.2f}s; ecdf M=200 in {sweep:.1f}s")


def test_criterion_11_cli_determinism(tmp_path):
    base = str(tmp_path / "d")
    synth = ["synth", "calibrated", "--n", "2000", "--classes", "5",
             "--support", "4", "--seed", "11", "--out"]
    assert main(synth + [base + "1"]) == 0
    assert main(synth + [base + "2"]) == 0
    for suffix in (".preds.csv", ".labels.csv", ".dist.json"):
        assert (tmp_path / ("d1" + suffix)).read_bytes() == \
            (tmp_path / ("d2" + suffix)).read_bytes()

    preds, labels = base + "1.preds.csv", base + "1.labels.csv"
    for name in ("r1.json", "r2.json"):
        assert main(["evaluate", "--preds", preds, "--labels", labels,
                     "--utility", "comb", "--utility", "top_class",
                     "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()

    for name, threads in (("e1.csv", "1"), ("e2.csv", "8")):
        assert main(["ecdf", "--preds", preds, "--labels", labels,
                     "--family", "rank", "--m", "60", "--seed", "4",
                     "--threads", threads, "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "e1.csv").read_bytes() == (tmp_path / "e2.csv").read_bytes()
    assert (tmp_path / "e1.csv.json").read_bytes() == \
        (tmp_path / "e2.csv.json").read_bytes()

    for name in ("s1.json", "s2.json"):
        assert main(["patch-fit", "--preds", preds, "--labels", labels,
                     "--epsilon", "0.05", "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "s1.json").read_bytes() == (tmp_path / "s2.json").read_bytes()
    assert (tmp_path / "s1.json.history.csv").read_bytes() == \
        (tmp_path / "s2.json.history.csv").read_bytes()

    for name in ("p1.csv", "p2.csv"):
        assert main(["patch-apply", str(tmp_path / "s1.json"),
                     "--preds", preds, "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "p1.csv").read_bytes() == (tmp_path / "p2.csv").read_bytes()
    _report(11, "synth/evaluate/ecdf/patch-fit/patch-apply rerun byte-identical")
