"""SIDCo core: threshold estimation, stage adaptation, and the compressor."""

from .sidco import SIDCo, VARIANT_TO_SID
from .stages import StageController, StageControllerConfig
from .threshold import DEFAULT_FIRST_STAGE_RATIO, MIN_STAGE_SAMPLE, stage_sid

__all__ = [
    "DEFAULT_FIRST_STAGE_RATIO",
    "MIN_STAGE_SAMPLE",
    "VARIANT_TO_SID",
    "SIDCo",
    "StageController",
    "StageControllerConfig",
    "stage_sid",
]
