"""RedSync trimmed-threshold heuristic (Fang et al., 2019).

RedSync searches for a threshold by moving a ratio between the mean and the
maximum of the absolute gradient: starting near the max, it repeatedly lowers
the threshold until at least ``k`` elements exceed it (or an iteration budget
runs out).  The search is cheap (each probe is one vectorised comparison) but
its stopping rule is coarse, so the selected count can land anywhere in a wide
band around ``k`` — the noisy estimation quality the paper shows in Figures
1c, 3c/f and 4b/d, with severe under-selection at aggressive ratios.
"""

from __future__ import annotations

import numpy as np

from .base import BucketedFit, Compressor, OpRecord
from .bucketed import (
    abs_block,
    bucket_target_ks,
    concat_indices,
    probe_round_ops,
    select_ge,
    workspace_for,
)


class RedSync(Compressor):
    """Mean/max interpolation threshold search.

    Parameters
    ----------
    max_search_iters:
        Budget of probe iterations.  RedSync's published implementation uses a
        small fixed budget so that the search cost stays linear; the same
        budget is what makes its achieved ratio fluctuate.
    shrink_factor:
        Multiplicative step applied to the interpolation coefficient each time
        the probe selects fewer than ``k`` elements.
    """

    name = "redsync"

    def __init__(self, max_search_iters: int = 10, shrink_factor: float = 0.5) -> None:
        if max_search_iters < 1:
            raise ValueError("max_search_iters must be >= 1")
        if not 0.0 < shrink_factor < 1.0:
            raise ValueError("shrink_factor must be in (0, 1)")
        self.max_search_iters = max_search_iters
        self.shrink_factor = shrink_factor

    def fit_all_buckets(self, gradient: np.ndarray, layout, ratio: float) -> BucketedFit:
        arr = np.asarray(gradient, dtype=np.float64).ravel()
        sizes = layout.sizes()
        num = layout.num_buckets
        ks = bucket_target_ks(sizes, ratio)

        # Each bucket's probe search runs off one cache-hot |g| scratch block
        # (the probes are data-dependent, so blocking — not stage-major 2-D
        # broadcasting — is what keeps this faster than a per-bucket loop); the
        # interpolation arithmetic and the fused trace batch across buckets.
        scratch = workspace_for(layout)
        idx_chunks: list[np.ndarray] = []
        bucket_nnz = np.empty(num, dtype=np.int64)
        thresholds: list[float] = []
        probe_iters = np.zeros(num, dtype=np.int64)
        for i in range(num):
            start, stop = layout.bounds(i)
            mags = abs_block(arr, start, stop, scratch)
            mean = float(mags.mean())
            maximum = float(mags.max())
            if maximum <= mean or maximum == 0.0:
                threshold = mean
            else:
                alpha = 1.0
                threshold = maximum
                for iterations in range(1, self.max_search_iters + 1):
                    alpha *= self.shrink_factor
                    threshold = mean + alpha * (maximum - mean)
                    if int(np.count_nonzero(mags >= threshold)) >= ks[i]:
                        break
                probe_iters[i] = iterations
            idx = select_ge(mags, threshold, start)
            idx_chunks.append(idx)
            bucket_nnz[i] = idx.size
            thresholds.append(float(threshold))

        d = arr.size
        ops = [OpRecord("elementwise", d), OpRecord("reduce", d), OpRecord("reduce", d)]
        ops.extend(probe_round_ops(sizes, probe_iters))
        ops.append(OpRecord("elementwise", d))
        ops.append(OpRecord("compact", d, int(bucket_nnz.sum())))

        indices = concat_indices(idx_chunks)
        return BucketedFit(
            indices=indices,
            values=arr[indices],
            bucket_nnz=bucket_nnz,
            bucket_thresholds=thresholds,
            target_ratio=ratio,
            ops=ops,
        )
