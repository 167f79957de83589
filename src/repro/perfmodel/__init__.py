"""Device performance model for compression latency."""

from .costs import PRIMITIVES, DeviceProfile, distribute_cost, scale_ops
from .device import CPU_XEON, DEVICES, GPU_V100
from .estimator import (
    DEFAULT_SAMPLE_CAP,
    LatencyEstimate,
    compression_throughput,
    estimate_latency,
    estimate_latency_for_dimension,
)

__all__ = [
    "CPU_XEON",
    "DEFAULT_SAMPLE_CAP",
    "DEVICES",
    "GPU_V100",
    "PRIMITIVES",
    "DeviceProfile",
    "LatencyEstimate",
    "compression_throughput",
    "distribute_cost",
    "estimate_latency",
    "estimate_latency_for_dimension",
    "scale_ops",
]
