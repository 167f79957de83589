"""Statistics substrate: sparsity-inducing distributions, fitting, and diagnostics."""

from .compressibility import (
    CompressibilityReport,
    fit_power_law_decay,
    sorted_magnitudes,
    sparsification_error_curve,
)
from .distributions import (
    ABSOLUTE_SIDS,
    SYMMETRIC_SIDS,
    DoubleGamma,
    DoubleGeneralizedPareto,
    Exponential,
    Gamma,
    GeneralizedPareto,
    Laplace,
)
from .fitting import (
    VALID_SIDS,
    FitResult,
    estimate_threshold,
    fit_absolute,
    threshold_from_fit,
    validate_sid,
)
from .goodness import (
    FitQuality,
    empirical_cdf,
    evaluate_fit,
    ks_statistic,
    log_likelihood,
    tail_quantile_relative_error,
)

__all__ = [
    "ABSOLUTE_SIDS",
    "SYMMETRIC_SIDS",
    "VALID_SIDS",
    "CompressibilityReport",
    "DoubleGamma",
    "DoubleGeneralizedPareto",
    "Exponential",
    "FitQuality",
    "FitResult",
    "Gamma",
    "GeneralizedPareto",
    "Laplace",
    "empirical_cdf",
    "estimate_threshold",
    "evaluate_fit",
    "fit_absolute",
    "fit_power_law_decay",
    "ks_statistic",
    "log_likelihood",
    "sorted_magnitudes",
    "sparsification_error_curve",
    "tail_quantile_relative_error",
    "threshold_from_fit",
    "validate_sid",
]
