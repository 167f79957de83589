"""Synthetic gradients and the model sizes of Table 1.

The micro-benchmarks (Figures 1, 16, 17) and the planner need gradient-like
vectors of model size: :func:`realistic_gradient` is a mixture that is
deliberately *not* any single SID.  Generating it synthetically exercises
exactly the code path the paper's compressors see — a flat float vector —
without requiring the real training frameworks.

The generator builds its output in place: it draws the uniform stream in
chunks into a bool mask, the bulk stream straight into the output, and the
tail stream in chunks copied where the mask selects the tail.  Every draw
takes one double per element, in order, so the bytes are those of the plain
three-array mixture, while the peak allocation is the output, the mask and one
chunk: about 1.13x the output's bytes at VGG16 size, against 2.13x for three
full-size draws.
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

#: Elements per chunk of :func:`realistic_gradient`'s uniform and tail draws
#: (512 KiB of doubles).
_CHUNK = 1 << 16


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
    for name, scale in (("bulk_scale", bulk_scale), ("tail_scale", tail_scale)):
        if not 0.0 <= scale < np.inf:
            raise ValueError(f"{name} must be finite and non-negative, got {scale}")
    rng = np.random.default_rng(seed)
    # ``np.where(uniform < sparsity, bulk, tail)`` over three full-size draws,
    # drawn stream by stream into the output and one mask instead.
    is_tail = np.empty(size, dtype=bool)
    for start in range(0, size, _CHUNK):
        mask = is_tail[start : start + _CHUNK]
        np.greater_equal(rng.uniform(size=mask.size), sparsity, out=mask)
    out = rng.laplace(0.0, bulk_scale, size=size)
    for start in range(0, size, _CHUNK):
        mask = is_tail[start : start + _CHUNK]
        tail = rng.laplace(0.0, tail_scale, size=mask.size)
        np.copyto(out[start : start + _CHUNK], tail, where=mask)
    return out
