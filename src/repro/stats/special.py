"""Special-function helpers used by the SID fitters.

The paper's closed-form estimators (Corollary 1.1-1.3, Lemma 2) only need a
small set of special functions: the log-gamma function, the digamma function
(for the exact gamma MLE we validate against), and the regularized lower
incomplete gamma function together with its inverse (for the exact gamma
quantile); GaussianK adds the inverse error function.  SciPy provides
production implementations of all of them; this module gives them stable,
documented names and adds the closed-form approximations from the paper so
both exact and approximate paths are available and testable against each
other.

This is the one module of :mod:`repro` that touches SciPy, and it imports
``scipy.special`` the first time one of its functions needs it, not when it
is imported.  A process that never evaluates a special function (the
exponential SIDCo fit, Top-k, DGC, the trainer, the planner) never loads
SciPy, which saves about 0.2 s and 17 MiB resident on a 2-vCPU x86 VM.
"""

from __future__ import annotations

from functools import cache

import numpy as np


@cache
def _scipy_special():
    """``scipy.special``, imported on the first call."""
    from scipy import special

    return special


def log_gamma(x: np.ndarray | float) -> np.ndarray | float:
    """Natural log of the gamma function, ``log Γ(x)``."""
    return _scipy_special().gammaln(x)


def digamma(x: np.ndarray | float) -> np.ndarray | float:
    """Digamma function ``ψ(x) = d log Γ(x) / dx``."""
    return _scipy_special().digamma(x)


def reg_lower_incomplete_gamma(a: float, x: np.ndarray | float) -> np.ndarray | float:
    """Regularized lower incomplete gamma function ``P(a, x)``."""
    return _scipy_special().gammainc(a, x)


def inv_reg_lower_incomplete_gamma(a: float, p: np.ndarray | float) -> np.ndarray | float:
    """Inverse of ``P(a, x)`` in ``x`` for probability ``p``."""
    return _scipy_special().gammaincinv(a, p)


def erfinv(y: np.ndarray | float) -> np.ndarray | float:
    """Inverse error function (GaussianK's Gaussian quantile)."""
    return _scipy_special().erfinv(y)


def _check_gamma_quantile_args(alpha: float, beta: float, delta: float) -> None:
    """Reject a ratio outside ``(0, 1)``, a shape outside ``(0, inf)`` or a scale ``<= 0``.

    A NaN shape or scale and an infinite scale pass: ``Gamma.fit`` returns
    them when a sample's moments overflow, and the scalar estimator must then
    give the threshold the batched SIDCo fit computes from the same formula.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if alpha <= 0.0 or alpha == np.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")


def gamma_quantile_upper_tail_approx(alpha: float, beta: float, delta: float) -> float:
    """Closed-form approximation of the gamma ``1 - delta`` quantile.

    Implements Eq. (15) / (24) of the paper:

        eta ≈ -beta * (log(delta) + log Γ(alpha))

    which upper-bounds the exact quantile for ``alpha <= 1`` and ``x >= 1`` and
    is tight as ``alpha -> 1``.  It avoids the inverse incomplete gamma
    function on the hot path.
    """
    _check_gamma_quantile_args(alpha, beta, delta)
    return float(-beta * (np.log(delta) + log_gamma(alpha)))


def gamma_quantile_exact(alpha: float, beta: float, delta: float) -> float:
    """Exact gamma ``1 - delta`` quantile via the inverse incomplete gamma.

    Implements Eq. (14): ``eta = beta * P^{-1}(alpha, 1 - delta)``.
    """
    _check_gamma_quantile_args(alpha, beta, delta)
    return float(beta * inv_reg_lower_incomplete_gamma(alpha, 1.0 - delta))


def minka_gamma_shape(log_mean_minus_mean_log: float) -> float:
    """Minka's closed-form approximation of the gamma shape parameter.

    Given ``s = log(mean(x)) - mean(log(x))`` this returns Eq. (16)/(27):

        alpha ≈ (3 - s + sqrt((s - 3)^2 + 24 s)) / (12 s)
    """
    s = float(log_mean_minus_mean_log)
    if s <= 0.0:
        # s -> 0 corresponds to a degenerate (constant) sample; the shape
        # estimate diverges.  Cap it at a large-but-finite value so callers
        # degrade gracefully instead of dividing by zero.
        return 1e6
    return (3.0 - s + np.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)


def gamma_shape_mle(mean: float, mean_log: float, *, tol: float = 1e-10, max_iter: int = 100) -> float:
    """Numerical MLE of the gamma shape parameter.

    Solves ``log(alpha) - psi(alpha) = s`` with ``s = log(mean) - mean_log``
    using Newton iterations started from Minka's closed form.  Used in tests
    and ablations to quantify the error of the closed-form path the paper
    adopts for speed.
    """
    s = float(np.log(mean) - mean_log)
    if s <= 0.0:
        return 1e6
    alpha = minka_gamma_shape(s)
    for _ in range(max_iter):
        f = np.log(alpha) - digamma(alpha) - s
        fprime = 1.0 / alpha - _scipy_special().polygamma(1, alpha)
        step = f / fprime
        new_alpha = alpha - step
        if new_alpha <= 0.0:
            new_alpha = alpha / 2.0
        if abs(new_alpha - alpha) < tol * alpha:
            alpha = new_alpha
            break
        alpha = new_alpha
    return float(alpha)
