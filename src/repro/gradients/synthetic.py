"""Synthetic gradient generators.

The micro-benchmarks (Figures 1, 16, 17) and many unit/property tests need
gradient-like vectors with controllable statistics: SID-distributed vectors
(Laplace / double gamma / double GP), mixtures that are deliberately *not* any
single SID, and vectors sized like the real models in Table 1.  Generating
them synthetically exercises exactly the code path the paper's compressors
see — a flat float vector — without requiring the real training frameworks.
"""

from __future__ import annotations

import numpy as np

from ..stats.distributions import DoubleGamma, DoubleGeneralizedPareto, Laplace

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


def laplace_gradient(size: int, scale: float = 1e-3, *, seed: int | None = None) -> np.ndarray:
    """Gradient drawn from a zero-centred Laplace (double exponential) SID."""
    rng = np.random.default_rng(seed)
    return Laplace(scale=scale).sample(size, rng)


def double_gamma_gradient(
    size: int, shape: float = 0.5, scale: float = 1e-3, *, seed: int | None = None
) -> np.ndarray:
    """Gradient drawn from a symmetric gamma SID (``shape < 1`` gives extra peakedness)."""
    rng = np.random.default_rng(seed)
    return DoubleGamma(shape=shape, scale=scale).sample(size, rng)


def double_gpareto_gradient(
    size: int, shape: float = 0.2, scale: float = 1e-3, *, seed: int | None = None
) -> np.ndarray:
    """Gradient drawn from a symmetric generalized Pareto SID (heavy tailed for ``shape > 0``)."""
    rng = np.random.default_rng(seed)
    return DoubleGeneralizedPareto(shape=shape, scale=scale).sample(size, rng)


def sid_gradient(sid: str, size: int, *, seed: int | None = None, **params) -> np.ndarray:
    """Dispatch to one of the SID generators by name (``exponential``/``gamma``/``gpareto``)."""
    if sid == "exponential":
        return laplace_gradient(size, seed=seed, **params)
    if sid == "gamma":
        return double_gamma_gradient(size, seed=seed, **params)
    if sid == "gpareto":
        return double_gpareto_gradient(size, seed=seed, **params)
    raise ValueError(f"unknown SID {sid!r}")


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


def model_sized_gradient(model: str, *, seed: int | None = None, max_elements: int | None = None) -> np.ndarray:
    """A realistic gradient with the dimension of one of the Table 1 models.

    ``max_elements`` caps the materialised size (simulation hosts cannot
    allocate a 143M-element float64 vector per compressor per benchmark trial);
    the cap only affects memory, not the statistics, because the generator is
    i.i.d. across coordinates.
    """
    key = model.lower()
    if key not in MODEL_DIMENSIONS:
        raise ValueError(f"unknown model {model!r}; known: {sorted(MODEL_DIMENSIONS)}")
    size = MODEL_DIMENSIONS[key]
    if max_elements is not None:
        size = min(size, max_elements)
    return realistic_gradient(size, seed=seed)


def evolving_gradients(
    size: int,
    iterations: int,
    *,
    initial_scale: float = 1e-2,
    final_scale: float = 1e-4,
    sparsity_growth: float = 0.5,
    seed: int | None = None,
) -> list[np.ndarray]:
    """A sequence of gradients whose sparsity increases over "training".

    Mirrors the evolution shown in Figure 2 (iteration 10000 is sparser than
    iteration 100): the overall scale shrinks geometrically and the fraction
    of near-zero coordinates grows.  Used to exercise the stage-adaptation
    logic and the capture/fit diagnostics deterministically.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    rng = np.random.default_rng(seed)
    out: list[np.ndarray] = []
    for i in range(iterations):
        frac = i / max(iterations - 1, 1)
        scale = initial_scale * (final_scale / initial_scale) ** frac
        sparsity = 0.5 + sparsity_growth * frac * 0.98
        sparsity = min(sparsity, 0.995)
        is_bulk = rng.uniform(size=size) < sparsity
        bulk = rng.laplace(0.0, scale * 0.05, size=size)
        tail = rng.laplace(0.0, scale, size=size)
        out.append(np.where(is_bulk, bulk, tail))
    return out
