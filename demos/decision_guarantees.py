"""What a small worst-interval error buys a decision maker.

Two exact statements are checked on finite-support populations, from a few
points up to 20 000, where every expectation is a finite sum.  First, a user
who commits to an action by thresholding the predicted utility loses at most
2*UC versus the best monotone post-processing of that score.  Second, the
predicted utility is itself close to a calibrated regressor of the realized
utility: the distance is at most 2*sqrt(2*UC) + UC.
"""

import numpy as np

from utilcal import (
    FiniteDistribution,
    UtilitySpec,
    dcu_bound_check,
    population_uc,
    risk_gap_check,
    two_point_distribution,
)
from utilcal.utilities import derive_rng, sample_linear


def random_population(rng, S, C):
    sup = rng.dirichlet(np.ones(C), size=S)
    cond = rng.dirichlet(np.ones(C), size=S)
    w = rng.dirichlet(np.ones(S))
    return FiniteDistribution(sup, w, cond)


def run() -> None:
    dist = two_point_distribution()
    spec = UtilitySpec.top_class()
    uc = population_uc(dist, spec)
    print(f"two-group population, top-class utility: UC = {uc}")

    gap = risk_gap_check(dist, spec, t0=0.5)
    print(f"  threshold-at-0.5 risk {gap.risk_v:.4f}, best monotone "
          f"{gap.risk_best_monotone:.4f}, gap bound 2*UC = {2 * uc:.4f}"
          f" -> holds: {gap.holds}")

    dcu = dcu_bound_check(dist, spec)
    print(f"  distance to calibrated utility predictor <= {dcu.dcu_upper:.4f},"
          f" bound 2*sqrt(2*UC)+UC = {dcu.bound:.4f} -> holds: {dcu.holds}")

    print("\nrandomized populations and utilities:")
    worst_slack = np.inf
    for s in range(300):
        rng = derive_rng(42, s)
        d = random_population(rng, int(rng.integers(2, 7)), 4)
        u = sample_linear(4, rng)
        t0 = float(rng.uniform(-1, 1))
        g = risk_gap_check(d, u, t0)
        b = dcu_bound_check(d, u)
        assert g.holds and b.holds
        worst_slack = min(
            worst_slack,
            2 * g.uc - (g.risk_v - g.risk_best_monotone),
        )
    print(f"  300 trials, both guarantees hold; tightest risk-gap slack "
          f"{worst_slack:.4f}")

    rng = derive_rng(42, 300)
    d = random_population(rng, 20_000, 10)
    u = sample_linear(10, rng)
    g = risk_gap_check(d, u, t0=0.3)
    b = dcu_bound_check(d, u)
    assert g.holds and b.holds
    print(f"\none population of {d.S} points over {d.C} classes, linear utility:"
          f" UC = {g.uc:.4f}")
    print(f"  threshold-at-0.3 risk {g.risk_v:.4f}, best monotone "
          f"{g.risk_best_monotone:.4f}, gap bound 2*UC = {2 * g.uc:.4f}"
          f" -> holds: {g.holds}")
    print(f"  distance to calibrated utility predictor <= {b.dcu_upper:.4f},"
          f" bound 2*sqrt(2*UC)+UC = {b.bound:.4f} -> holds: {b.holds}")


if __name__ == "__main__":
    run()
