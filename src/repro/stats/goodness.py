"""Goodness-of-fit utilities for comparing SID fits against empirical gradients.

Figures 2 and 8 of the paper overlay the empirical PDF/CDF of captured
gradient vectors with the three fitted SIDs, with an inset zooming on the tail
of the CDF.  This module produces the numeric series behind those plots plus
scalar summary statistics (Kolmogorov-Smirnov distance and a tail-quantile
relative error) so the reproduction can assert fit quality without rendering
figures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FitQuality:
    """Scalar summary of how well a fitted distribution matches a sample."""

    ks_statistic: float
    tail_quantile_rel_error: float
    log_likelihood: float


def empirical_cdf(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(sorted_values, F(sorted_values))`` for the empirical CDF."""
    arr = np.sort(np.asarray(values, dtype=np.float64).ravel())
    if arr.size == 0:
        raise ValueError("empirical_cdf requires a non-empty sample")
    probs = np.arange(1, arr.size + 1, dtype=np.float64) / arr.size
    return arr, probs


def ks_statistic(values: np.ndarray, cdf_callable) -> float:
    """Kolmogorov-Smirnov distance between the sample and a model CDF."""
    xs, emp = empirical_cdf(values)
    model = np.asarray(cdf_callable(xs), dtype=np.float64)
    # Compare against both the left- and right-continuous empirical steps.
    lower = emp - 1.0 / xs.size
    return float(np.max(np.maximum(np.abs(emp - model), np.abs(lower - model))))


def tail_quantile_relative_error(values: np.ndarray, ppf_callable, quantile: float = 0.999) -> float:
    """Relative error of the model quantile vs the sample quantile at ``quantile``.

    This is the statistic that actually matters for threshold estimation: a
    fit can match the bulk of the distribution and still misplace the far
    tail, which is the failure mode single-stage fitting exhibits at
    aggressive ratios (Section 2.3, "Possible issues in far tail fitting").
    """
    if not 0.0 < quantile < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {quantile}")
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("tail_quantile_relative_error requires a non-empty sample")
    empirical_q = float(np.quantile(arr, quantile))
    model_q = float(ppf_callable(quantile))
    if empirical_q == 0.0:
        return abs(model_q)
    return abs(model_q - empirical_q) / abs(empirical_q)


def log_likelihood(values: np.ndarray, pdf_callable, *, floor: float = 1e-300) -> float:
    """Total log-likelihood of the sample under a model PDF."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    dens = np.asarray(pdf_callable(arr), dtype=np.float64)
    return float(np.sum(np.log(np.maximum(dens, floor))))


def evaluate_fit(values: np.ndarray, distribution, *, tail_quantile: float = 0.999) -> FitQuality:
    """Bundle KS distance, tail-quantile error, and log-likelihood for one fit."""
    return FitQuality(
        ks_statistic=ks_statistic(values, distribution.cdf),
        tail_quantile_rel_error=tail_quantile_relative_error(values, distribution.ppf, tail_quantile),
        log_likelihood=log_likelihood(values, distribution.pdf),
    )
