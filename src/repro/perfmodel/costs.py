"""Per-primitive cost model for compression operations.

The paper's latency results (Figures 1, 12, 14-17) are driven by how a small
set of vectorised primitives behave on different devices:

* GPUs execute element-wise passes, reductions and random-number generation at
  memory bandwidth, but Top-k selection (sort / radix-select) parallelises
  poorly — this is why Top-k is the slowest compressor on GPU;
* CPUs select k-th elements reasonably fast (``nth_element`` / radix select)
  but pay dearly for the per-element random number generation and gathers DGC
  needs — this is why DGC is the slowest compressor on CPU;
* threshold estimators only use reductions, element-wise passes and a stream
  compaction, so they are cheap everywhere.

A :class:`DeviceProfile` captures those asymmetries as per-element
coefficients plus a fixed per-operation launch overhead.  Absolute values are
calibrated to V100-class and Xeon-class hardware orders of magnitude, but the
figures only rely on the relative ordering and how it scales with the vector
dimension ``d``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..compressors.base import OpRecord

#: Primitive names every profile must provide a coefficient for.
PRIMITIVES: tuple[str, ...] = (
    "elementwise",
    "reduce",
    "log_reduce",
    "compact",
    "topk_select",
    "sort",
    "random_sample",
)


@dataclass(frozen=True)
class DeviceProfile:
    """Per-element costs (seconds/element) and per-op launch overhead (seconds)."""

    name: str
    per_element: dict[str, float]
    launch_overhead: float

    def __post_init__(self) -> None:
        missing = set(PRIMITIVES) - set(self.per_element)
        if missing:
            raise ValueError(f"device profile {self.name!r} is missing primitives: {sorted(missing)}")
        if self.launch_overhead < 0.0:
            raise ValueError("launch_overhead must be non-negative")
        bad = {op: c for op, c in self.per_element.items() if c <= 0.0}
        if bad:
            raise ValueError(f"per-element costs must be positive, got {bad}")

    def op_cost(self, record: OpRecord) -> float:
        """Estimated seconds for one primitive invocation."""
        if record.op not in self.per_element:
            raise KeyError(f"unknown primitive {record.op!r} for device {self.name!r}")
        return self.launch_overhead + self.per_element[record.op] * max(record.size, 0)

    def trace_cost(self, ops: list[OpRecord]) -> float:
        """Estimated seconds for a full operation trace."""
        return float(sum(self.op_cost(op) for op in ops))


def distribute_cost(total_seconds: float, weights) -> np.ndarray:
    """Split a total duration across buckets proportionally to ``weights``.

    Compression primitives are linear in the number of elements scanned, so
    one compression call covering many gradient buckets (e.g. the batched
    SIDCo fitting pass) spends time on each bucket in proportion to the
    bucket's element count.  The event-driven iteration schedule uses this to
    turn one trace-level total into per-bucket compression durations.
    """
    if total_seconds < 0.0:
        raise ValueError("total_seconds must be non-negative")
    w = np.asarray(weights, dtype=np.float64)
    if w.size == 0:
        raise ValueError("weights must be non-empty")
    if (w < 0.0).any():
        raise ValueError("weights must be non-negative")
    total_weight = float(w.sum())
    if total_weight <= 0.0:
        return np.full(w.size, total_seconds / w.size)
    return total_seconds * w / total_weight


def scale_ops(ops: list[OpRecord], factor: float) -> list[OpRecord]:
    """Scale the sizes of an operation trace by ``factor``.

    Every compressor's trace sizes are linear in the gradient dimension, so a
    trace captured on a down-sampled vector can be rescaled to the full model
    dimension without materialising hundreds of millions of elements.
    """
    if factor <= 0.0:
        raise ValueError("factor must be positive")
    return [OpRecord(op=o.op, size=int(round(o.size * factor)), k=int(round(o.k * factor))) for o in ops]
