"""Distributional evaluation over a sampled utility class.

Instead of chasing the (intractable) worst utility in a rich class, sample M
utilities, compute each one's worst-interval error, and report the empirical
CDF of those errors with a DKW confidence band.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dataset import LabeledPredictions
from .errors import DomainError
# uc_hat stays importable here: perfbench's tracer wraps it at this module.
from .estimators import group_sample, uc_hat, uc_hat_pool  # noqa: F401
from .utilities import SAMPLERS, UtilitySpec, derive_rng, sample_utility


@dataclass(frozen=True)
class EcdfResult:
    """Sorted per-utility errors plus the sampling configuration."""

    errors: np.ndarray
    family: str
    M: int
    seed: int
    band_halfwidth: float | None = None
    delta: float | None = None
    utilities: tuple[UtilitySpec, ...] | None = None

    def __post_init__(self) -> None:
        errors = np.sort(np.asarray(self.errors, dtype=np.float64))
        # cdf_at, ecdf_compare and write_ecdf_csv all divide ranks by M
        if not self.M == len(errors) >= 1:
            raise DomainError(
                f"M must equal the number of errors (at least 1), "
                f"got M={self.M} for {len(errors)} errors"
            )
        errors.setflags(write=False)
        object.__setattr__(self, "errors", errors)

    def cdf_at(self, e: np.ndarray | float) -> np.ndarray:
        return np.searchsorted(self.errors, e, side="right") / self.M


def dkw_band(M: int, delta: float) -> float:
    """DKW half-width sqrt(ln(2/delta) / (2M))."""
    if M < 1:
        raise DomainError("M must be >= 1")
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must be in (0, 1), got {delta}")
    return math.sqrt(math.log(2.0 / delta) / (2.0 * M))


def ecdf_evaluate(
    preds: LabeledPredictions,
    family: str,
    M: int,
    seed: int,
    threads: int = 1,
    delta: float | None = None,
    keep_utilities: bool = False,
) -> EcdfResult:
    """Worst-interval error of M utilities sampled from ``family``.

    Utility m draws from the stream derived from (seed, m), so the result is
    byte-identical whatever the worker count.  The sweep runs on
    min(threads, M, cores) workers: threads beyond the core count only
    contend.
    """
    if family not in SAMPLERS:
        raise DomainError(f"family must be one of {tuple(SAMPLERS)}, got {family!r}")
    if M < 1:
        raise DomainError("M must be >= 1")
    if threads < 1:
        raise DomainError(f"threads must be >= 1, got {threads}")
    C = preds.C
    law = group_sample(preds)

    def share(ms: range) -> list[tuple[float, UtilitySpec]]:
        specs = [sample_utility(family, C, derive_rng(seed, m)) for m in ms]
        estimates = uc_hat_pool(law, specs)
        return [(est.value, spec) for est, spec in zip(estimates, specs)]

    # The sample is grouped once; each worker evaluates a contiguous share of
    # the utilities in one pool on that law.
    workers = min(threads, M, os.cpu_count() or 1)
    bounds = [M * w // workers for w in range(workers + 1)]
    shares = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = [r for part in pool.map(share, shares) for r in part]
    else:
        results = share(shares[0])

    errors = np.array([val for val, _ in results])
    band = dkw_band(M, delta) if delta is not None else None
    return EcdfResult(
        errors=errors,
        family=family,
        M=M,
        seed=seed,
        band_halfwidth=band,
        delta=delta,
        utilities=tuple(spec for _, spec in results) if keep_utilities else None,
    )


@dataclass(frozen=True)
class EcdfDistance:
    sup_distance: float
    l2_distance: float


def ecdf_compare(a: EcdfResult, b: EcdfResult) -> EcdfDistance:
    """Sup and exact L2([0, 2]) distances between two error eCDFs."""
    if a.family != b.family:
        raise DomainError(f"cannot compare families {a.family!r} and {b.family!r}")
    xs = np.union1d(a.errors, b.errors)
    sup = float(np.max(np.abs(a.cdf_at(xs) - b.cdf_at(xs))))

    pts = np.unique(np.concatenate(([0.0], xs[(xs > 0.0) & (xs < 2.0)], [2.0])))
    gaps = a.cdf_at(pts[:-1]) - b.cdf_at(pts[:-1])
    l2 = float(np.sqrt(np.sum(np.diff(pts) * gaps * gaps)))
    return EcdfDistance(sup_distance=sup, l2_distance=l2)


def write_ecdf_csv(path: str, result: EcdfResult) -> None:
    """Two columns "error,cdf", errors ascending, cdf = rank/M."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("error,cdf\n")
        for i, e in enumerate(result.errors):
            fh.write(f"{e:.17g},{(i + 1) / result.M:.17g}\n")


def write_ecdf_sidecar(path: str, result: EcdfResult) -> None:
    meta = {
        "family": result.family,
        "M": result.M,
        "seed": result.seed,
        "band_halfwidth": result.band_halfwidth,
        "delta": result.delta,
    }
    if result.utilities is not None:
        meta["utilities"] = [spec.to_json_dict() for spec in result.utilities]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
