"""Hard-threshold compressor with an adaptive scale (Aji & Heafield, 2017 style).

Keeps every element whose magnitude exceeds a fixed threshold.  The threshold
is adapted multiplicatively across calls so the achieved ratio drifts toward
the target — a simple linear-time scheme included as an additional baseline
and as a sanity reference for the threshold-selection code path.
"""

from __future__ import annotations

import numpy as np

from .base import BucketedFit, Compressor, OpRecord
from .bucketed import abs_block, grouped, segments, select_ge


class AdaptiveHardThreshold(Compressor):
    """Fixed threshold scaled up/down based on the previously achieved ratio.

    Parameters
    ----------
    adjustment_rate:
        Fraction by which the internal scale moves toward the corrective value
        after each call (1.0 = jump straight to the corrective value).
    """

    name = "hard_threshold"

    def __init__(self, adjustment_rate: float = 0.5) -> None:
        if not 0.0 < adjustment_rate <= 1.0:
            raise ValueError("adjustment_rate must be in (0, 1]")
        self.adjustment_rate = adjustment_rate
        self._scale: float | None = None

    @grouped
    def fit_all_buckets(self, rows: np.ndarray, layout, ratio: float, group) -> list[BucketedFit]:
        segs = segments(layout, len(rows))
        flat = rows.ravel()
        num = segs.sizes.size

        # The adaptive scale couples a worker's buckets sequentially (bucket
        # i sees the correction from bucket i-1), so the walk itself stays a
        # per-segment scalar recurrence on each worker's own scale — replayed
        # exactly — while the element passes run off one scratch buffer and
        # the trace is fused.
        scratch = segs.scratch()
        idx_chunks: list[np.ndarray] = []
        bucket_nnz = np.empty(num, dtype=np.int64)
        thresholds: list[float] = []
        for i in range(num):
            worker = group[i // segs.buckets]
            start, stop = segs.bounds[i], segs.bounds[i + 1]
            size = stop - start
            mags = abs_block(flat, start, stop, scratch)
            mean = float(mags.mean())
            if worker._scale is None:
                worker._scale = float(np.log(1.0 / ratio))
            threshold = mean * worker._scale
            idx = select_ge(mags, threshold, start)
            idx_chunks.append(idx)
            bucket_nnz[i] = idx.size
            thresholds.append(float(threshold))

            achieved = max(idx.size / size, 1.0 / size)
            corrective = worker._scale * (np.log(1.0 / ratio) / max(np.log(1.0 / achieved), 1e-12))
            worker._scale = float(
                (1.0 - self.adjustment_rate) * worker._scale + self.adjustment_rate * corrective
            )

        d = layout.total_size
        ops = [
            [OpRecord("elementwise", d), OpRecord("reduce", d), OpRecord("elementwise", d),
             OpRecord("compact", d, nnz)]
            for nnz in segs.per_worker(bucket_nnz)
        ]
        return segs.split(flat, np.concatenate(idx_chunks), bucket_nnz, thresholds, ratio, ops)
