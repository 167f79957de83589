"""Synthetic test inputs: SID-distributed and evolving gradients, toy datasets.

The gradient generators give vectors with controllable statistics (SID
draws, model-sized realistic mixtures, sequences that sparsify over
"training"); the datasets are small Gaussian-blob classification and linear
regression tasks whose loss a tiny model drives down in a few iterations.
"""

from __future__ import annotations

import numpy as np

from repro.data import ArrayDataset
from repro.gradients import MODEL_DIMENSIONS, realistic_gradient
from repro.stats.distributions import (
    DoubleGamma,
    DoubleGeneralizedPareto,
    Exponential,
    Gamma,
    GeneralizedPareto,
    Laplace,
)


def draw(dist, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` independent draws from one of the ``repro.stats`` distributions."""
    if isinstance(dist, Exponential):
        return rng.exponential(dist.scale, size=size)
    if isinstance(dist, Gamma):
        return rng.gamma(dist.shape, dist.scale, size=size)
    if isinstance(dist, GeneralizedPareto):
        u = rng.uniform(0.0, 1.0, size=size)
        if abs(dist.shape) < 1e-8:  # the exponential limit of the GP
            return dist.loc - dist.scale * np.log1p(-u)
        return dist.loc + dist.scale / dist.shape * (np.power(1.0 - u, -dist.shape) - 1.0)
    if isinstance(dist, Laplace):
        return rng.laplace(0.0, dist.scale, size=size)
    if isinstance(dist, (DoubleGamma, DoubleGeneralizedPareto)):
        magnitude = draw(dist.absolute, size, rng)
        signs = rng.choice(np.array([-1.0, 1.0]), size=size)
        return magnitude * signs
    raise TypeError(f"cannot draw from {type(dist).__name__}")


def laplace_gradient(size: int, scale: float = 1e-3, *, seed: int | None = None) -> np.ndarray:
    """Gradient drawn from a zero-centred Laplace (double exponential) SID."""
    rng = np.random.default_rng(seed)
    return draw(Laplace(scale=scale), size, rng)


def double_gamma_gradient(
    size: int, shape: float = 0.5, scale: float = 1e-3, *, seed: int | None = None
) -> np.ndarray:
    """Gradient drawn from a symmetric gamma SID (``shape < 1`` gives extra peakedness)."""
    rng = np.random.default_rng(seed)
    return draw(DoubleGamma(shape=shape, scale=scale), size, rng)


def double_gpareto_gradient(
    size: int, shape: float = 0.2, scale: float = 1e-3, *, seed: int | None = None
) -> np.ndarray:
    """Gradient drawn from a symmetric generalized Pareto SID (heavy tailed for ``shape > 0``)."""
    rng = np.random.default_rng(seed)
    return draw(DoubleGeneralizedPareto(shape=shape, scale=scale), size, rng)


def sid_gradient(sid: str, size: int, *, seed: int | None = None, **params) -> np.ndarray:
    """Dispatch to one of the SID generators by name (``exponential``/``gamma``/``gpareto``)."""
    if sid == "exponential":
        return laplace_gradient(size, seed=seed, **params)
    if sid == "gamma":
        return double_gamma_gradient(size, seed=seed, **params)
    if sid == "gpareto":
        return double_gpareto_gradient(size, seed=seed, **params)
    raise ValueError(f"unknown SID {sid!r}")


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


def make_blobs_classification(
    num_examples: int = 512,
    num_features: int = 32,
    num_classes: int = 10,
    *,
    class_separation: float = 2.0,
    noise: float = 1.0,
    seed: int = 0,
) -> ArrayDataset:
    """Gaussian-blob classification: one anchored cluster per class plus noise.

    The separation/noise ratio controls how quickly a small model's loss
    drops, which lets integration tests assert "training reduces loss" without
    long runs.
    """
    if num_examples < num_classes:
        raise ValueError("need at least one example per class")
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, class_separation, size=(num_classes, num_features))
    targets = rng.integers(0, num_classes, size=num_examples)
    inputs = centers[targets] + rng.normal(0.0, noise, size=(num_examples, num_features))
    return ArrayDataset(inputs=inputs, targets=targets)


def make_regression(
    num_examples: int = 512,
    num_features: int = 16,
    *,
    noise: float = 0.1,
    seed: int = 0,
) -> ArrayDataset:
    """Linear regression data ``y = X w + noise`` with a dense ground-truth weight."""
    rng = np.random.default_rng(seed)
    weights = rng.normal(0.0, 1.0, size=num_features)
    inputs = rng.normal(0.0, 1.0, size=(num_examples, num_features))
    targets = inputs @ weights + rng.normal(0.0, noise, size=num_examples)
    return ArrayDataset(inputs=inputs, targets=targets[:, None])
