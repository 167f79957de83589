"""SIDCo's scalar single- and multi-stage threshold estimators: a test oracle.

Unbucketed SIDCo is the one-bucket case of
:func:`repro.pipeline.vectorized.estimate_multi_stage_bucketed`, SIDCo's
only estimator.  The scalar estimators below (Sections 2.3 and 2.4) are the
implementation it replaced, kept verbatim so the one-bucket fit can be held
bit-for-bit equal to them: thresholds, stages used and op trace.  A
degenerate stage sample makes them raise ``ValueError`` where the batched
fit gives the bucket a ``+inf`` threshold.  Nothing under ``src/`` imports
this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.compressors.base import OpRecord
from repro.core.threshold import DEFAULT_FIRST_STAGE_RATIO, MIN_STAGE_SAMPLE, stage_sid
from repro.stats.fitting import SIDName, estimate_threshold


def stage_ratios(delta: float, num_stages: int, first_stage_ratio: float = DEFAULT_FIRST_STAGE_RATIO) -> list[float]:
    """Per-stage ratios ``delta_m`` with ``prod_m delta_m == delta``.

    Stage one uses ``first_stage_ratio`` (0.25 in the paper); the remaining
    target ``delta / first_stage_ratio`` is split geometrically across the
    other stages.  When a single stage is requested, or the target is not
    aggressive enough to need staging (``delta >= first_stage_ratio``), the
    schedule collapses to ``[delta]``.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if num_stages < 1:
        raise ValueError(f"num_stages must be >= 1, got {num_stages}")
    if not 0.0 < first_stage_ratio < 1.0:
        raise ValueError(f"first_stage_ratio must be in (0, 1), got {first_stage_ratio}")
    if num_stages == 1 or delta >= first_stage_ratio:
        return [delta]
    remaining = delta / first_stage_ratio
    per_stage = remaining ** (1.0 / (num_stages - 1))
    ratios = [first_stage_ratio] + [per_stage] * (num_stages - 1)
    # Numerical correction so the product is exactly delta.
    product = float(np.prod(ratios))
    ratios[-1] *= delta / product
    return ratios


@dataclass
class ThresholdEstimate:
    """Result of a (possibly multi-stage) threshold estimation."""

    threshold: float
    stage_thresholds: list[float]
    stage_ratios: list[float]
    stages_used: int
    ops: list[OpRecord] = field(default_factory=list)


def estimate_single_stage(abs_gradient: np.ndarray, delta: float, sid: SIDName) -> ThresholdEstimate:
    """Single-stage estimation: fit once, take the ``1 - delta`` quantile."""
    arr = np.asarray(abs_gradient, dtype=np.float64).ravel()
    ops = _fit_ops(sid, arr.size)
    eta = estimate_threshold(arr, delta, sid, loc=0.0)
    return ThresholdEstimate(
        threshold=float(eta),
        stage_thresholds=[float(eta)],
        stage_ratios=[delta],
        stages_used=1,
        ops=ops,
    )


def estimate_multi_stage(
    abs_gradient: np.ndarray,
    delta: float,
    sid: SIDName,
    num_stages: int,
    *,
    first_stage_ratio: float = DEFAULT_FIRST_STAGE_RATIO,
    min_stage_sample: int = MIN_STAGE_SAMPLE,
) -> ThresholdEstimate:
    """Multi-stage PoT estimation per Section 2.4 / Algorithm 1's Sparsify loop.

    Each stage fits the current exceedance vector (values above the previous
    threshold), computes a stage threshold for its per-stage ratio, and
    filters.  Per-stage ratios are chosen so the product equals the target
    ratio *with respect to the exceedances actually produced by the previous
    stage* (Section 2.4 defines ``delta_2 = k_2 / k_1`` relative to the
    exceedance set): stage one uses ``first_stage_ratio``, intermediate
    stages split the remaining gap geometrically, and the final stage targets
    exactly ``k`` out of the current exceedance count.  Basing later ratios
    on the achieved exceedance count (rather than the nominal ``delta_1 d``)
    makes each stage correct the fitting error of the one before it, which is
    what drives ``k_hat / k`` toward 1 at aggressive ratios.
    """
    arr = np.asarray(abs_gradient, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("cannot estimate a threshold from an empty gradient")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if num_stages < 1:
        raise ValueError(f"num_stages must be >= 1, got {num_stages}")

    target_k = delta * arr.size  # expected number of kept elements (not rounded)
    ops: list[OpRecord] = []
    stage_thresholds: list[float] = []
    used_ratios: list[float] = []

    current = arr
    eta_prev = 0.0
    for m in range(num_stages):
        if current.size < min_stage_sample:
            break
        # Overall ratio still needed, measured against the *current* exceedance set.
        needed = min(target_k / current.size, 0.999)
        remaining_stages = num_stages - m
        if remaining_stages == 1 or needed >= first_stage_ratio:
            delta_m = needed
            is_last = True
        elif m == 0:
            delta_m = first_stage_ratio
            is_last = False
        else:
            delta_m = float(max(needed ** (1.0 / remaining_stages), needed))
            is_last = False

        this_sid = stage_sid(sid, m)
        ops.extend(_fit_ops(this_sid, current.size))
        eta = estimate_threshold(current, delta_m, this_sid, loc=eta_prev)
        # Thresholds must be non-decreasing across stages; a decrease can only
        # come from fit noise on tiny exceedance samples.
        eta = max(eta, eta_prev)
        stage_thresholds.append(float(eta))
        used_ratios.append(float(delta_m))
        eta_prev = eta
        if is_last:
            break
        mask = current >= eta
        ops.append(OpRecord("elementwise", current.size))
        ops.append(OpRecord("compact", current.size, int(mask.sum())))
        current = current[mask]

    if not stage_thresholds:
        # Degenerate vector: fall back to a single-stage fit on everything.
        return estimate_single_stage(arr, delta, sid)

    return ThresholdEstimate(
        threshold=stage_thresholds[-1],
        stage_thresholds=stage_thresholds,
        stage_ratios=used_ratios,
        stages_used=len(stage_thresholds),
        ops=ops,
    )


def _fit_ops(sid: SIDName, size: int) -> list[OpRecord]:
    """Primitive-operation trace of one SID fit + quantile evaluation.

    * exponential: one mean reduction,
    * gamma: mean + mean-of-logs (a log elementwise pass plus two reductions),
    * generalized Pareto: mean + variance (two reductions).
    """
    if sid == "exponential":
        return [OpRecord("reduce", size)]
    if sid == "gamma":
        return [OpRecord("log_reduce", size), OpRecord("reduce", size)]
    return [OpRecord("reduce", size), OpRecord("reduce", size)]
