"""Recalibrating a predictor by patching its worst interval violations.

Each iteration locates the utility and interval with the largest empirical
bias, then shifts the masked predictions against the violation and projects
back onto the simplex, by the quadratic-bound step min(err/D, 2) with D the
masked rows' mean squared payoff norm.  The Brier score is a potential
function: it drops by at least err^2/C per step, so the loop terminates and
the recalibration can only improve the proper score.  The fitted patch
sequence is a pure function of the prediction vector, so it transfers to
held-out data.
"""

import numpy as np

from utilcal import (
    FiniteDistribution,
    brier,
    comb_pool,
    fit,
    gen_miscalibrated,
    split,
    transform,
    uc_hat,
)


def make_data(n: int, C: int, seed: int):
    rng = np.random.default_rng(seed)
    raw = rng.dirichlet(np.ones(C), size=8)
    sharp = raw**3
    sharp /= sharp.sum(axis=1, keepdims=True)
    dist = FiniteDistribution(sharp, np.full(8, 1 / 8), raw)
    return gen_miscalibrated(dist, n, seed=seed)[0]


def pool_error(preds, C):
    return max(uc_hat(preds, u).value for u in comb_pool(C))


def run() -> None:
    C = 6
    data = make_data(30_000, C, seed=3)
    parts = split(data, 0.7, seed=0)
    cal, test = parts.calibration, parts.test

    seq = fit(cal, epsilon=0.02)
    print(f"iterations: {len(seq.records)}")
    h0, h1 = seq.history[0], seq.history[-1]
    print(f"worst pool error on cal: {h0.err:.4f} -> <= 0.02")
    print(f"Brier on cal: {h0.brier_before:.4f} -> {h1.brier_after:.4f}"
          " (monotone by construction)")

    patched = transform(test, seq)
    print(f"held-out pool error: {pool_error(test, C):.4f}"
          f" -> {pool_error(patched, C):.4f}")
    print(f"held-out Brier:      {brier(test):.4f} -> {brier(patched):.4f}")


if __name__ == "__main__":
    run()
