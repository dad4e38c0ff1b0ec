"""Distributional evaluation over a sampled utility class.

Instead of chasing the (intractable) worst utility in a rich class, sample M
utilities, compute each one's worst-interval error, and report the empirical
CDF of those errors with a DKW confidence band.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import KW_ONLY, dataclass, field

import numpy as np

from .dataset import LabeledPredictions, write_json
from .errors import DomainError
# uc_hat stays importable here: perfbench's tracer wraps it at this module.
from .estimators import group_sample, uc_hat, uc_hat_pool  # noqa: F401
from .utilities import UtilitySpec, derive_rng, sample_utility


@dataclass(frozen=True)
class EcdfResult:
    """Sorted per-utility errors plus the sampling configuration.

    ``M`` is the number of errors and ``band_halfwidth`` the DKW half-width
    at ``delta`` (None without one); both are derived, never passed.
    """

    errors: np.ndarray
    family: str
    _: KW_ONLY
    M: int = field(init=False)
    seed: int
    band_halfwidth: float | None = field(init=False)
    delta: float | None = None
    utilities: tuple[UtilitySpec, ...] | None = None

    def __post_init__(self) -> None:
        errors = np.sort(np.asarray(self.errors, dtype=np.float64))
        # cdf_at, ecdf_compare and write_ecdf_csv all divide ranks by M
        if len(errors) == 0:
            raise DomainError("need at least one error")
        errors.setflags(write=False)
        object.__setattr__(self, "errors", errors)
        object.__setattr__(self, "M", len(errors))
        band = None if self.delta is None else dkw_band(self.M, self.delta)
        object.__setattr__(self, "band_halfwidth", band)

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
    if M < 1:
        raise DomainError("M must be >= 1")
    if delta is not None:
        dkw_band(M, delta)  # a bad delta fails before the sweep
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

    return EcdfResult(
        errors=np.array([val for val, _ in results]),
        family=family,
        seed=seed,
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
    """The eCDF's metadata as JSON: family, M, seed, band_halfwidth, delta
    and, when kept, the utilities in sampling order (utility m drawn from
    the stream (seed, m)), not in the CSV's ascending error order."""
    meta = {
        "family": result.family,
        "M": result.M,
        "seed": result.seed,
        "band_halfwidth": result.band_halfwidth,
        "delta": result.delta,
    }
    if result.utilities is not None:
        meta["utilities"] = [spec.to_json_dict() for spec in result.utilities]
    write_json(path, meta)
