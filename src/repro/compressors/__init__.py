"""Gradient compressors: SIDCo baselines and competitors."""

from .base import BucketedFit, Compressor, CompressionResult, OpRecord
from .dgc import DGC
from .gaussiank import GaussianKSGD
from .randomk import RandomK
from .redsync import RedSync
from .registry import (
    PAPER_COMPRESSORS,
    SIDCO_VARIANTS,
    available_compressors,
    create_compressor,
)
from .threshold_fixed import AdaptiveHardThreshold
from .topk import NoCompression, TopK

__all__ = [
    "DGC",
    "PAPER_COMPRESSORS",
    "SIDCO_VARIANTS",
    "AdaptiveHardThreshold",
    "BucketedFit",
    "Compressor",
    "CompressionResult",
    "GaussianKSGD",
    "NoCompression",
    "OpRecord",
    "RandomK",
    "RedSync",
    "TopK",
    "available_compressors",
    "create_compressor",
]
