"""Sparsity-inducing distributions (SIDs) used to model DNN gradients.

The paper (Property 2) models the per-element gradient as a symmetric,
zero-located random variable following one of three SIDs:

* double exponential (Laplace),
* double gamma,
* double generalized Pareto (GP).

Threshold estimation only ever needs the distribution of the *absolute*
gradient (Lemma 1), so fitting works on the one-sided counterparts
(`Exponential`, `Gamma`, `GeneralizedPareto`).  All fitting uses
the closed-form estimators from Corollaries 1.1-1.3 so the cost of a fit is a
handful of vectorised reductions over the gradient vector — the property that
makes SIDCo cheaper than Top-k / DGC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import special


def _validate_probability(p: float) -> None:
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must be in (0, 1), got {p}")


def _as_positive_array(x: np.ndarray) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        arr = arr.ravel()
    return arr


# ---------------------------------------------------------------------------
# One-sided distributions (model |G|)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Exponential:
    """Exponential distribution with scale ``beta`` (mean ``beta``)."""

    scale: float
    name: ClassVar[str] = "exponential"

    def __post_init__(self) -> None:
        if self.scale <= 0.0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    def pdf(self, x: np.ndarray | float) -> np.ndarray | float:
        x = np.asarray(x, dtype=np.float64)
        out = np.where(x >= 0.0, np.exp(-x / self.scale) / self.scale, 0.0)
        return out if out.ndim else float(out)

    def cdf(self, x: np.ndarray | float) -> np.ndarray | float:
        x = np.asarray(x, dtype=np.float64)
        out = np.where(x >= 0.0, 1.0 - np.exp(-x / self.scale), 0.0)
        return out if out.ndim else float(out)

    def ppf(self, p: float) -> float:
        _validate_probability(p)
        return float(-self.scale * np.log1p(-p))

    @classmethod
    def fit(cls, abs_values: np.ndarray) -> "Exponential":
        """MLE fit: the scale is the sample mean of the absolute values."""
        arr = _as_positive_array(abs_values)
        mean = float(arr.mean()) if arr.size else 0.0
        if mean <= 0.0:
            raise ValueError("cannot fit an exponential to an all-zero or empty sample")
        return cls(scale=mean)

    def threshold_for_ratio(self, delta: float) -> float:
        """Threshold keeping an expected fraction ``delta`` of elements (Cor. 1.1)."""
        _validate_probability(delta)
        return float(self.scale * np.log(1.0 / delta))


@dataclass(frozen=True)
class Gamma:
    """Gamma distribution with shape ``shape`` and scale ``scale``."""

    shape: float
    scale: float
    name: ClassVar[str] = "gamma"

    def __post_init__(self) -> None:
        if self.shape <= 0.0 or self.scale <= 0.0:
            raise ValueError("shape and scale must be positive")

    def pdf(self, x: np.ndarray | float) -> np.ndarray | float:
        x = np.asarray(x, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_pdf = (
                (self.shape - 1.0) * np.log(x)
                - x / self.scale
                - self.shape * np.log(self.scale)
                - special.log_gamma(self.shape)
            )
            out = np.where(x > 0.0, np.exp(log_pdf), 0.0)
        return out if out.ndim else float(out)

    def cdf(self, x: np.ndarray | float) -> np.ndarray | float:
        x = np.asarray(x, dtype=np.float64)
        out = np.where(x > 0.0, special.reg_lower_incomplete_gamma(self.shape, np.maximum(x, 0.0) / self.scale), 0.0)
        return out if out.ndim else float(out)

    def ppf(self, p: float) -> float:
        _validate_probability(p)
        return float(self.scale * special.inv_reg_lower_incomplete_gamma(self.shape, p))

    @classmethod
    def fit(cls, abs_values: np.ndarray, *, exact_mle: bool = False) -> "Gamma":
        """Closed-form (Minka) fit per Corollary 1.2, or exact MLE if requested."""
        arr = _as_positive_array(abs_values)
        positive = arr[arr > 0.0]
        if positive.size == 0:
            raise ValueError("cannot fit a gamma to an all-zero or empty sample")
        mean = float(positive.mean())
        mean_log = float(np.log(positive).mean())
        if exact_mle:
            shape = special.gamma_shape_mle(mean, mean_log)
        else:
            shape = special.minka_gamma_shape(np.log(mean) - mean_log)
        shape = float(np.clip(shape, 1e-6, 1e6))
        return cls(shape=shape, scale=mean / shape)

    def threshold_for_ratio(self, delta: float, *, approximate: bool = True) -> float:
        """Threshold for target ratio ``delta`` (Cor. 1.2).

        With ``approximate=True`` uses the closed form
        ``-beta (log delta + log Γ(alpha))`` the paper adopts on the hot path;
        otherwise the exact quantile via the inverse incomplete gamma.
        """
        _validate_probability(delta)
        if approximate:
            eta = special.gamma_quantile_upper_tail_approx(self.shape, self.scale, delta)
            return float(max(eta, 0.0))
        return special.gamma_quantile_exact(self.shape, self.scale, delta)


@dataclass(frozen=True)
class GeneralizedPareto:
    """Generalized Pareto distribution GP(shape, scale, loc).

    The paper constrains the shape to ``|alpha| < 1/2`` so the first two
    moments exist and moment matching is valid (Eq. 34-35).  ``shape`` close
    to zero degrades gracefully to the exponential distribution.
    """

    shape: float
    scale: float
    loc: float = 0.0
    name: ClassVar[str] = "generalized_pareto"

    _SHAPE_EPS: ClassVar[float] = 1e-8

    def __post_init__(self) -> None:
        if self.scale <= 0.0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    def _z(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.loc) / self.scale

    def pdf(self, x: np.ndarray | float) -> np.ndarray | float:
        z = self._z(x)
        if abs(self.shape) < self._SHAPE_EPS:
            out = np.where(z >= 0.0, np.exp(-z) / self.scale, 0.0)
        else:
            base = 1.0 + self.shape * z
            with np.errstate(invalid="ignore"):
                out = np.where(
                    (z >= 0.0) & (base > 0.0),
                    np.power(np.maximum(base, 1e-12), -(1.0 / self.shape + 1.0)) / self.scale,
                    0.0,
                )
        return out if out.ndim else float(out)

    def cdf(self, x: np.ndarray | float) -> np.ndarray | float:
        z = self._z(x)
        if abs(self.shape) < self._SHAPE_EPS:
            out = np.where(z >= 0.0, 1.0 - np.exp(-z), 0.0)
        else:
            base = 1.0 + self.shape * z
            with np.errstate(invalid="ignore"):
                inner = np.power(np.maximum(base, 1e-12), -1.0 / self.shape)
                out = np.where(z >= 0.0, np.where(base > 0.0, 1.0 - inner, 1.0), 0.0)
        return out if out.ndim else float(out)

    def ppf(self, p: float) -> float:
        _validate_probability(p)
        if abs(self.shape) < self._SHAPE_EPS:
            return float(self.loc - self.scale * np.log1p(-p))
        return float(self.loc + self.scale / self.shape * (np.exp(-self.shape * np.log1p(-p)) - 1.0))

    @classmethod
    def fit(cls, abs_values: np.ndarray, *, loc: float = 0.0) -> "GeneralizedPareto":
        """Moment-matching fit per Corollary 1.3 / Lemma 2 (Eq. 29, 38).

        Matches the paper's sign convention where ``alpha = (1 - mu^2/sigma^2)/2``;
        ``abs_values`` are the exceedances already shifted so that ``loc`` is
        their lower bound (the previous-stage threshold, or 0 for stage one).
        """
        arr = _as_positive_array(abs_values)
        shifted = arr - loc
        shifted = shifted[shifted >= 0.0]
        if shifted.size < 2:
            raise ValueError("need at least two exceedances to moment-match a GP distribution")
        mu = float(shifted.mean())
        sigma2 = float(shifted.var())
        if mu <= 0.0 or sigma2 <= 0.0:
            raise ValueError("degenerate exceedance sample for GP fitting")
        shape = 0.5 * (1.0 - mu * mu / sigma2)
        scale = 0.5 * mu * (mu * mu / sigma2 + 1.0)
        # Keep the shape in the range where moments exist, as the paper assumes.
        shape = float(np.clip(shape, -0.499, 0.499))
        scale = float(max(scale, 1e-300))
        return cls(shape=shape, scale=scale, loc=loc)

    def threshold_for_ratio(self, delta: float) -> float:
        """Threshold for target ratio ``delta`` relative to the location (Eq. 28 / 7)."""
        _validate_probability(delta)
        if abs(self.shape) < self._SHAPE_EPS:
            return float(self.loc + self.scale * np.log(1.0 / delta))
        return float(self.loc + self.scale / self.shape * (np.exp(-self.shape * np.log(delta)) - 1.0))


# ---------------------------------------------------------------------------
# Symmetric ("double") distributions (model G)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Laplace:
    """Double-exponential (Laplace) distribution centred at zero."""

    scale: float
    name: ClassVar[str] = "laplace"

    def __post_init__(self) -> None:
        if self.scale <= 0.0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    def pdf(self, x: np.ndarray | float) -> np.ndarray | float:
        x = np.asarray(x, dtype=np.float64)
        out = np.exp(-np.abs(x) / self.scale) / (2.0 * self.scale)
        return out if out.ndim else float(out)

    def cdf(self, x: np.ndarray | float) -> np.ndarray | float:
        x = np.asarray(x, dtype=np.float64)
        half_tail = 0.5 * np.exp(-np.abs(x) / self.scale)
        out = np.where(x < 0.0, half_tail, 1.0 - half_tail)
        return out if out.ndim else float(out)

    def ppf(self, p: float) -> float:
        _validate_probability(p)
        if p < 0.5:
            return float(self.scale * np.log(2.0 * p))
        return float(-self.scale * np.log(2.0 * (1.0 - p)))


@dataclass(frozen=True)
class DoubleGamma:
    """Symmetric gamma distribution (Eq. 17), used when gradients decay faster than Laplace."""

    shape: float
    scale: float
    name: ClassVar[str] = "double_gamma"

    def __post_init__(self) -> None:
        if self.shape <= 0.0 or self.scale <= 0.0:
            raise ValueError("shape and scale must be positive")

    @property
    def absolute(self) -> Gamma:
        return Gamma(shape=self.shape, scale=self.scale)

    def pdf(self, x: np.ndarray | float) -> np.ndarray | float:
        x = np.asarray(x, dtype=np.float64)
        out = 0.5 * self.absolute.pdf(np.abs(x))
        return out if np.ndim(out) else float(out)

    def cdf(self, x: np.ndarray | float) -> np.ndarray | float:
        x = np.asarray(x, dtype=np.float64)
        half = self.absolute.cdf(np.abs(x))
        out = np.where(x < 0.0, 0.5 * (1.0 - half), 0.5 * (1.0 + half))
        return out if np.ndim(out) else float(out)

    def ppf(self, p: float) -> float:
        _validate_probability(p)
        if p == 0.5:
            return 0.0
        if p > 0.5:
            return self.absolute.ppf(2.0 * p - 1.0)
        return -self.absolute.ppf(1.0 - 2.0 * p)


@dataclass(frozen=True)
class DoubleGeneralizedPareto:
    """Symmetric generalized Pareto distribution (Eq. 30)."""

    shape: float
    scale: float
    name: ClassVar[str] = "double_generalized_pareto"

    def __post_init__(self) -> None:
        if self.scale <= 0.0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    @property
    def absolute(self) -> GeneralizedPareto:
        return GeneralizedPareto(shape=self.shape, scale=self.scale, loc=0.0)

    def pdf(self, x: np.ndarray | float) -> np.ndarray | float:
        x = np.asarray(x, dtype=np.float64)
        out = 0.5 * self.absolute.pdf(np.abs(x))
        return out if np.ndim(out) else float(out)

    def cdf(self, x: np.ndarray | float) -> np.ndarray | float:
        x = np.asarray(x, dtype=np.float64)
        half = self.absolute.cdf(np.abs(x))
        out = np.where(x < 0.0, 0.5 * (1.0 - half), 0.5 * (1.0 + half))
        return out if np.ndim(out) else float(out)

    def ppf(self, p: float) -> float:
        _validate_probability(p)
        if p == 0.5:
            return 0.0
        if p > 0.5:
            return self.absolute.ppf(2.0 * p - 1.0)
        return -self.absolute.ppf(1.0 - 2.0 * p)


SYMMETRIC_SIDS = {
    "exponential": Laplace,
    "gamma": DoubleGamma,
    "gpareto": DoubleGeneralizedPareto,
}

ABSOLUTE_SIDS = {
    "exponential": Exponential,
    "gamma": Gamma,
    "gpareto": GeneralizedPareto,
}
