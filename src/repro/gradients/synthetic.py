"""Synthetic gradients and the model sizes of Table 1.

The micro-benchmarks (Figures 1, 16, 17) and the planner need gradient-like
vectors of model size: :func:`realistic_gradient` is a mixture that is
deliberately *not* any single SID.  Generating it synthetically exercises
exactly the code path the paper's compressors see — a flat float vector —
without requiring the real training frameworks.
"""

from __future__ import annotations

import numpy as np

#: Parameter counts of the models in Table 1 (used for model-sized vectors).
MODEL_DIMENSIONS: dict[str, int] = {
    "resnet20": 269_467,
    "vgg16": 14_982_987,
    "resnet50": 25_559_081,
    "vgg19": 143_671_337,
    "lstm-ptb": 66_034_000,
    "lstm-an4": 43_476_256,
}

#: Synthetic tensor sizes of Figures 16/17 (0.26M, 2.6M, 26M, 260M elements).
SYNTHETIC_TENSOR_SIZES: tuple[int, ...] = (260_000, 2_600_000, 26_000_000, 260_000_000)


def realistic_gradient(
    size: int,
    *,
    sparsity: float = 0.9,
    bulk_scale: float = 1e-4,
    tail_scale: float = 5e-3,
    seed: int | None = None,
) -> np.ndarray:
    """Gradient mimicking the empirical shape of DNN gradients (Figure 2).

    A two-component mixture: a dominant near-zero bulk (fraction ``sparsity``)
    with small Laplace scale and a heavier-tailed Laplace component carrying
    the informative coordinates.  The result is compressible in the sense of
    Definition 1 but is *not* exactly any single SID, which is the situation
    the multi-stage estimator is designed for.
    """
    if not 0.0 < sparsity < 1.0:
        raise ValueError(f"sparsity must be in (0, 1), got {sparsity}")
    rng = np.random.default_rng(seed)
    is_bulk = rng.uniform(size=size) < sparsity
    bulk = rng.laplace(0.0, bulk_scale, size=size)
    tail = rng.laplace(0.0, tail_scale, size=size)
    # In place: ``np.where(is_bulk, bulk, tail)`` without a fourth array.
    np.copyto(tail, bulk, where=is_bulk)
    return tail
