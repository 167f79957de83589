"""Gradient compressibility diagnostics (Definition 1, Property 1, Figure 7).

A vector ``g`` is compressible when its sorted magnitudes obey a power-law
decay ``|g|_(j) <= c * j^{-p}`` with ``p > 1/2``, which bounds the Top-k
sparsification error by ``c2 * k^{1/2 - p}``.  These diagnostics are used to
empirically validate Property 1 on captured gradients and regenerate the two
panels of Figure 7.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CompressibilityReport:
    """Summary of a power-law compressibility check on one gradient vector."""

    decay_exponent: float
    decay_constant: float
    r_squared: float
    is_compressible: bool
    dimension: int


def sorted_magnitudes(gradient: np.ndarray) -> np.ndarray:
    """Absolute values of ``gradient`` sorted in descending order (the vector ``~g``)."""
    return np.sort(np.abs(np.asarray(gradient, dtype=np.float64).ravel()))[::-1]


def sparsification_error_curve(gradient: np.ndarray, ks: np.ndarray | list[int]) -> np.ndarray:
    """Vector of ``sigma_k`` values for each ``k`` in ``ks`` (Figure 7b series)."""
    g = np.asarray(gradient, dtype=np.float64).ravel()
    mags_sq = np.sort(np.abs(g)) ** 2
    # cumulative sum of squared magnitudes from the smallest element upwards so
    # sigma_k is a single lookup per k.
    cum = np.concatenate(([0.0], np.cumsum(mags_sq)))
    ks_arr = np.asarray(ks, dtype=np.int64)
    if np.any(ks_arr < 0):
        raise ValueError("all k values must be non-negative")
    keep = np.clip(g.size - ks_arr, 0, g.size)
    return np.sqrt(cum[keep])


def fit_power_law_decay(
    gradient: np.ndarray,
    *,
    head_fraction: float = 0.4,
    min_points: int = 16,
) -> CompressibilityReport:
    """Fit ``log |g|_(j) ~ log c - p log j`` over the head of the sorted magnitudes.

    Only the head (largest ``head_fraction`` of non-zero entries) is used: the
    paper's Figure 7a focuses on the first ~1e5 of 2.7e5 indices because the
    far tail of near-zero values is noise-dominated and irrelevant to the
    decay-rate question.
    """
    if not 0.0 < head_fraction <= 1.0:
        raise ValueError(f"head_fraction must be in (0, 1], got {head_fraction}")
    mags = sorted_magnitudes(gradient)
    nonzero = mags[mags > 0.0]
    if nonzero.size < min_points:
        raise ValueError(
            f"need at least {min_points} non-zero elements to fit a decay law, got {nonzero.size}"
        )
    n_head = max(min_points, int(np.ceil(nonzero.size * head_fraction)))
    head = nonzero[:n_head]
    j = np.arange(1, head.size + 1, dtype=np.float64)
    log_j = np.log(j)
    log_g = np.log(head)
    slope, intercept = np.polyfit(log_j, log_g, 1)
    predicted = slope * log_j + intercept
    ss_res = float(np.sum((log_g - predicted) ** 2))
    ss_tot = float(np.sum((log_g - log_g.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    decay_exponent = float(-slope)
    return CompressibilityReport(
        decay_exponent=decay_exponent,
        decay_constant=float(np.exp(intercept)),
        r_squared=r_squared,
        is_compressible=decay_exponent > 0.5,
        dimension=int(np.asarray(gradient).size),
    )
