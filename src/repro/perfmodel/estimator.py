"""Compression-latency estimation on modelled devices.

``estimate_latency`` prices a single compression call's operation trace on a
device profile.  ``estimate_latency_for_dimension`` runs the compressor on a
bounded-size sample vector and rescales the trace to an arbitrary model
dimension ``d`` — every compressor's primitive sizes are linear in ``d``, so
this reproduces the size sweeps of Figures 14-17 (up to 260M elements)
without allocating those vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..compressors.base import Compressor, CompressionResult
from .costs import DeviceProfile, scale_ops

#: Largest vector actually materialised when extrapolating to huge models.
DEFAULT_SAMPLE_CAP = 1_000_000


def estimate_latency(result: CompressionResult, device: DeviceProfile) -> float:
    """Seconds the compression call would take on ``device``."""
    return device.trace_cost(result.ops)


def compression_throughput(result: CompressionResult, device: DeviceProfile) -> float:
    """Modelled compression throughput (dense elements/second) on ``device``.

    The bucketed pipeline's batched fit emits one fused trace for all
    buckets while a per-bucket loop would emit one trace per bucket (paying
    the launch overhead per bucket), so this is the number that exposes the
    vectorisation win inside the cost model as well as on the wall clock.
    """
    seconds = device.trace_cost(result.ops)
    if seconds <= 0.0:
        return float("inf")
    return result.sparse.dense_size / seconds


@dataclass(frozen=True)
class LatencyEstimate:
    """Latency of one compressor at one dimension/ratio on one device."""

    compressor: str
    device: str
    dimension: int
    ratio: float
    seconds: float
    achieved_ratio: float


def estimate_latency_for_dimension(
    compressor: Compressor,
    gradient_sample: np.ndarray,
    dimension: int,
    ratio: float,
    device: DeviceProfile,
) -> LatencyEstimate:
    """Estimate latency at model dimension ``dimension`` from a sample vector.

    The compressor runs on ``gradient_sample`` (whatever fits in memory); the
    resulting operation trace is rescaled by ``dimension / len(sample)``
    before pricing.  The sample must be statistically representative of the
    full gradient, which holds for the i.i.d. synthetic generators used by the
    micro-benchmarks.
    """
    sample = np.asarray(gradient_sample, dtype=np.float64).ravel()
    if sample.size == 0:
        raise ValueError("gradient_sample must be non-empty")
    if dimension <= 0:
        raise ValueError("dimension must be positive")
    result = compressor.compress(sample, ratio)
    factor = dimension / sample.size
    ops = scale_ops(result.ops, factor) if factor != 1.0 else result.ops
    seconds = device.trace_cost(ops)
    return LatencyEstimate(
        compressor=compressor.name,
        device=device.name,
        dimension=dimension,
        ratio=ratio,
        seconds=seconds,
        achieved_ratio=result.achieved_ratio,
    )
