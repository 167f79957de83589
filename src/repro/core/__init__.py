"""SIDCo core: threshold estimation, stage adaptation, and the compressor."""

from .convergence import (
    ConvergenceBound,
    contraction_factor,
    error_feedback_residual_bound,
    extra_iterations_fraction,
    iterations_to_sgd_rate,
)
from .sidco import SIDCo, VARIANT_TO_SID
from .stages import StageController, StageControllerConfig
from .threshold import DEFAULT_FIRST_STAGE_RATIO, MIN_STAGE_SAMPLE, stage_sid

__all__ = [
    "DEFAULT_FIRST_STAGE_RATIO",
    "MIN_STAGE_SAMPLE",
    "VARIANT_TO_SID",
    "ConvergenceBound",
    "SIDCo",
    "StageController",
    "StageControllerConfig",
    "contraction_factor",
    "error_feedback_residual_bound",
    "extra_iterations_fraction",
    "iterations_to_sgd_rate",
    "stage_sid",
]
