"""repro: reproduction of SIDCo — statistical-based gradient compression (MLSys 2021).

Public API overview
-------------------
- :mod:`repro.core` — the SIDCo compressor, threshold estimation, stage adaptation.
- :mod:`repro.compressors` — baselines (Top-k, DGC, RedSync, GaussianKSGD, ...) and registry.
- :mod:`repro.stats` — sparsity-inducing distributions, fitting, compressibility diagnostics.
- :mod:`repro.nn`, :mod:`repro.optim`, :mod:`repro.data` — NumPy DNN training substrate.
- :mod:`repro.distributed` — synchronous data-parallel training simulator with compression.
- :mod:`repro.perfmodel` — device cost model for compression latency (GPU-like / CPU-like).
- :mod:`repro.harness` — experiment configurations and runners for every paper table/figure.
"""

from .compressors import (
    PAPER_COMPRESSORS,
    SIDCO_VARIANTS,
    Compressor,
    CompressionResult,
    available_compressors,
    create_compressor,
)
from .core import SIDCo, StageController, StageControllerConfig
from .pipeline import DEFAULT_BUCKET_BYTES, BucketLayout, CompressionPipeline
from .tensor import SparseGradient

__version__ = "7.0.0"

__all__ = [
    "DEFAULT_BUCKET_BYTES",
    "PAPER_COMPRESSORS",
    "SIDCO_VARIANTS",
    "BucketLayout",
    "Compressor",
    "CompressionPipeline",
    "CompressionResult",
    "SIDCo",
    "SparseGradient",
    "StageController",
    "StageControllerConfig",
    "available_compressors",
    "create_compressor",
    "__version__",
]
