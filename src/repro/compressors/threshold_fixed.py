"""Hard-threshold compressor with an adaptive scale (Aji & Heafield, 2017 style).

Keeps every element whose magnitude exceeds a fixed threshold.  The threshold
is adapted multiplicatively across calls so the achieved ratio drifts toward
the target — a simple linear-time scheme included as an additional baseline
and as a sanity reference for the threshold-selection code path.
"""

from __future__ import annotations

import numpy as np

from .base import BucketedFit, Compressor, OpRecord
from .bucketed import abs_block, concat_indices, select_ge, workspace_for


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

    def reset(self) -> None:
        self._scale = None

    def fit_all_buckets(self, gradient: np.ndarray, layout, ratio: float) -> BucketedFit:
        arr = np.asarray(gradient, dtype=np.float64).ravel()
        num = layout.num_buckets

        # The adaptive scale couples buckets sequentially (bucket i sees the
        # correction from bucket i-1), so the walk itself stays a per-bucket
        # scalar recurrence — replayed exactly — while the element passes run
        # blocked off one scratch buffer and the trace is fused.
        scratch = workspace_for(layout)
        idx_chunks: list[np.ndarray] = []
        bucket_nnz = np.empty(num, dtype=np.int64)
        thresholds: list[float] = []
        for i in range(num):
            start, stop = layout.bounds(i)
            size = stop - start
            mags = abs_block(arr, start, stop, scratch)
            mean = float(mags.mean())
            if self._scale is None:
                self._scale = float(np.log(1.0 / ratio))
            threshold = mean * self._scale
            idx = select_ge(mags, threshold, start)
            idx_chunks.append(idx)
            bucket_nnz[i] = idx.size
            thresholds.append(float(threshold))

            achieved = max(idx.size / size, 1.0 / size)
            corrective = self._scale * (np.log(1.0 / ratio) / max(np.log(1.0 / achieved), 1e-12))
            self._scale = float(
                (1.0 - self.adjustment_rate) * self._scale + self.adjustment_rate * corrective
            )

        d = arr.size
        indices = concat_indices(idx_chunks)
        return BucketedFit(
            indices=indices,
            values=arr[indices],
            bucket_nnz=bucket_nnz,
            bucket_thresholds=thresholds,
            target_ratio=ratio,
            ops=[
                OpRecord("elementwise", d),
                OpRecord("reduce", d),
                OpRecord("elementwise", d),
                OpRecord("compact", d, int(bucket_nnz.sum())),
            ],
        )
