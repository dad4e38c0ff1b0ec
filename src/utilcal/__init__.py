"""Utility-aware multiclass calibration.

Measures calibration of a probabilistic classifier relative to downstream
utility functions via binning-free worst-interval estimators, evaluates whole
utility classes through error eCDFs with DKW bands, and recalibrates
predictors with an iterative patching algorithm that never worsens the Brier
score.
"""

from .dataset import (
    FiniteDistribution,
    LabeledPredictions,
    SplitResult,
    ValidationReport,
    gen_calibrated,
    gen_miscalibrated,
    gen_two_point,
    split,
    two_point_distribution,
    validate,
)
from .ecdf import EcdfResult, dkw_band, ecdf_compare, ecdf_evaluate
from .errors import (
    ConfigError,
    DomainError,
    GuardError,
    ParseError,
    UtilcalError,
    ValidationError,
)
from .estimators import (
    BinScheme,
    DcuBoundResult,
    MetricReport,
    RiskGapResult,
    UcEstimate,
    accuracy,
    brier,
    cwe_binned,
    dcu_bound_check,
    evaluate_metrics,
    population_uc,
    residuals,
    risk_gap_check,
    tce_binned,
    uc_hat,
    uc_hat_oracle,
    uc_hat_pool,
)
from .patching import (
    PatchRecord,
    PatchSequence,
    find_worst_witness,
    fit,
    transform,
)
from .utilities import (
    UtilityEvaluation,
    UtilitySpec,
    comb_pool,
    dcg_pool,
    derive_rng,
    eval_utility,
    gain_matrix_aligned,
    gain_matrix_misaligned,
    rank_of,
    sample_decision,
    sample_linear,
    sample_rank,
)

__version__ = "0.1.0"

__all__ = [
    "BinScheme",
    "ConfigError",
    "DcuBoundResult",
    "DomainError",
    "EcdfResult",
    "FiniteDistribution",
    "GuardError",
    "LabeledPredictions",
    "MetricReport",
    "ParseError",
    "PatchRecord",
    "PatchSequence",
    "RiskGapResult",
    "SplitResult",
    "UcEstimate",
    "UtilcalError",
    "UtilityEvaluation",
    "UtilitySpec",
    "ValidationError",
    "ValidationReport",
    "accuracy",
    "brier",
    "comb_pool",
    "cwe_binned",
    "dcg_pool",
    "dcu_bound_check",
    "derive_rng",
    "dkw_band",
    "ecdf_compare",
    "ecdf_evaluate",
    "eval_utility",
    "evaluate_metrics",
    "find_worst_witness",
    "fit",
    "gain_matrix_aligned",
    "gain_matrix_misaligned",
    "gen_calibrated",
    "gen_miscalibrated",
    "gen_two_point",
    "population_uc",
    "rank_of",
    "residuals",
    "risk_gap_check",
    "sample_decision",
    "sample_linear",
    "sample_rank",
    "split",
    "tce_binned",
    "transform",
    "two_point_distribution",
    "uc_hat",
    "uc_hat_oracle",
    "uc_hat_pool",
    "validate",
]
