"""Closed-form SID fitters operating directly on gradient vectors.

These are the functions SIDCo calls on every training iteration, so they are
written as a handful of vectorised NumPy reductions (means, variances, log
means) exactly mirroring ``Thresh_Estimation`` in Algorithm 1 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .distributions import Exponential, Gamma, GeneralizedPareto

SIDName = Literal["exponential", "gamma", "gpareto"]

VALID_SIDS: tuple[str, ...] = ("exponential", "gamma", "gpareto")


@dataclass(frozen=True)
class FitResult:
    """A fitted one-sided SID plus the sample statistics it was derived from."""

    distribution: Exponential | Gamma | GeneralizedPareto
    sid: str
    sample_size: int
    sample_mean: float
    sample_var: float


def validate_sid(sid: str) -> str:
    if sid not in VALID_SIDS:
        raise ValueError(f"unknown SID {sid!r}; expected one of {VALID_SIDS}")
    return sid


def fit_absolute(abs_values: np.ndarray, sid: SIDName, *, loc: float = 0.0) -> FitResult:
    """Fit the one-sided SID ``sid`` to a vector of absolute gradient values.

    ``loc`` is the lower bound of the sample (the previous-stage threshold for
    multi-stage / peak-over-threshold fitting, 0.0 for the first stage).  The
    exponential and gamma fits subtract ``loc`` before fitting, matching
    Corollary 2.1 and Algorithm 1; the GP fit uses ``loc`` as its location
    parameter per Lemma 2.
    """
    validate_sid(sid)
    arr = np.asarray(abs_values, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("cannot fit a distribution to an empty sample")

    if sid == "exponential":
        shifted = arr - loc
        dist: Exponential | Gamma | GeneralizedPareto = Exponential.fit(shifted)
        mean = float(shifted.mean())
        var = float(shifted.var())
    elif sid == "gamma":
        shifted = arr - loc
        dist = Gamma.fit(shifted)
        mean = float(shifted.mean())
        var = float(shifted.var())
    else:  # gpareto
        dist = GeneralizedPareto.fit(arr, loc=loc)
        shifted = arr - loc
        mean = float(shifted.mean())
        var = float(shifted.var())

    return FitResult(
        distribution=dist,
        sid=sid,
        sample_size=int(arr.size),
        sample_mean=mean,
        sample_var=var,
    )


def threshold_from_fit(fit: FitResult, delta: float, *, loc: float = 0.0) -> float:
    """Threshold (in the original, unshifted gradient-magnitude space) for ratio ``delta``.

    For the exponential and gamma fits the fitted distribution lives in the
    shifted space (values minus ``loc``), so the previous-stage threshold is
    added back; the GP fit already carries the location.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    dist = fit.distribution
    if isinstance(dist, GeneralizedPareto):
        return float(dist.threshold_for_ratio(delta))
    return float(dist.threshold_for_ratio(delta) + loc)


def estimate_threshold(
    abs_values: np.ndarray,
    delta: float,
    sid: SIDName,
    *,
    loc: float = 0.0,
) -> float:
    """One-shot fit + quantile: the ``Thresh_Estimation`` routine of Algorithm 1."""
    fit = fit_absolute(abs_values, sid, loc=loc)
    return threshold_from_fit(fit, delta, loc=loc)
