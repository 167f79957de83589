"""GaussianKSGD threshold estimation (Shi et al., 2019).

GaussianKSGD assumes the gradient is Gaussian, derives an initial threshold
from the Gaussian quantile for the target ratio, then nudges the threshold up
or down with a fixed-step heuristic for a few iterations based on the observed
selection count.  DNN gradients are much more peaked and heavier-tailed than a
Gaussian (Property 2 of the paper), so the initial quantile lands far from the
true Top-k threshold and the bounded correction loop cannot recover —
producing the orders-of-magnitude under-selection the paper reports.
"""

from __future__ import annotations

import numpy as np

from ..stats.special import erfinv
from .base import BucketedFit, Compressor, OpRecord
from .bucketed import (
    abs_block,
    bucket_target_ks,
    grouped,
    probe_round_ops,
    segments,
    select_ge,
)


class GaussianKSGD(Compressor):
    """Gaussian-quantile initial threshold plus bounded iterative correction.

    Parameters
    ----------
    max_adjust_iters:
        Number of correction iterations applied after the Gaussian guess.
    tolerance:
        Relative band around ``k`` considered "close enough" to stop adjusting.
    step:
        Multiplicative step used to scale the threshold when the selection is
        outside the tolerance band.
    """

    name = "gaussiank"

    def __init__(self, max_adjust_iters: int = 4, tolerance: float = 0.2, step: float = 0.1) -> None:
        if max_adjust_iters < 0:
            raise ValueError("max_adjust_iters must be >= 0")
        if not 0.0 < tolerance < 1.0:
            raise ValueError("tolerance must be in (0, 1)")
        if not 0.0 < step < 1.0:
            raise ValueError("step must be in (0, 1)")
        self.max_adjust_iters = max_adjust_iters
        self.tolerance = tolerance
        self.step = step

    @grouped
    def fit_all_buckets(self, rows: np.ndarray, layout, ratio: float, group) -> list[BucketedFit]:
        segs = segments(layout, len(rows))
        flat = rows.ravel()
        num = segs.sizes.size
        ks = np.tile(bucket_target_ks(layout.sizes(), ratio), len(rows))
        # The Gaussian quantile factor depends only on the target ratio, so it
        # is computed once for every bucket; the multiplication order below
        # matches the one-bucket formula.
        erfinv_tail = erfinv(1.0 - ratio)
        sqrt2 = np.sqrt(2.0)

        # |g - mean| probes and the final |g| selection run segment by segment
        # off one scratch buffer; the correction-loop arithmetic is
        # per-segment Python floats, bit-for-bit a one-bucket fit of each.
        scratch = segs.scratch()
        idx_chunks: list[np.ndarray] = []
        bucket_nnz = np.empty(num, dtype=np.int64)
        thresholds: list[float] = []
        probe_iters = np.zeros(num, dtype=np.int64)
        centred = np.zeros(num, dtype=np.int64)
        for i in range(num):
            start, stop = segs.bounds[i], segs.bounds[i + 1]
            view = flat[start:stop]
            mean = float(view.mean())
            std = float(view.std())
            if std == 0.0:
                threshold = abs(mean)
            else:
                threshold = float(std * sqrt2 * erfinv_tail)
                mags = scratch[: stop - start]
                np.subtract(view, mean, out=mags)
                centred[i] = stop - start
                np.abs(mags, out=mags)
                for iterations in range(1, self.max_adjust_iters + 1):
                    probe_iters[i] = iterations
                    selected = int(np.count_nonzero(mags >= threshold))
                    if selected > (1.0 + self.tolerance) * ks[i]:
                        threshold *= 1.0 + self.step
                    elif selected < (1.0 - self.tolerance) * ks[i]:
                        threshold *= 1.0 - self.step
                    else:
                        break
            mags = abs_block(flat, start, stop, scratch)
            idx = select_ge(mags, threshold, start)
            idx_chunks.append(idx)
            bucket_nnz[i] = idx.size
            thresholds.append(float(threshold))

        d, sizes = layout.total_size, layout.sizes()
        ops = []
        for nnz, spread, iters in zip(
            segs.per_worker(bucket_nnz), segs.per_worker(centred), probe_iters.reshape(len(rows), -1)
        ):
            # The |g - mean| pass runs only over buckets with spread to fit.
            ops.append([
                OpRecord("reduce", d), OpRecord("reduce", d),
                *([OpRecord("elementwise", spread)] if spread else []),
                *probe_round_ops(sizes, iters),
                OpRecord("elementwise", d), OpRecord("compact", d, nnz),
            ])
        return segs.split(flat, np.concatenate(idx_chunks), bucket_nnz, thresholds, ratio, ops)
