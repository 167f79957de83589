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
    grouped,
    probe_round_ops,
    segments,
    select_ge,
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

    @grouped
    def fit_all_buckets(self, rows: np.ndarray, layout, ratio: float, group) -> list[BucketedFit]:
        segs = segments(layout, len(rows))
        flat = rows.ravel()
        num = segs.sizes.size
        ks = np.tile(bucket_target_ks(layout.sizes(), ratio), len(rows))

        # Each segment's probe search runs off one cache-hot |g| scratch block
        # (the probes are data-dependent, so blocking — not stage-major 2-D
        # broadcasting — is what keeps this faster than a per-bucket loop); the
        # interpolation arithmetic and the fused trace batch across buckets.
        scratch = segs.scratch()
        idx_chunks: list[np.ndarray] = []
        bucket_nnz = np.empty(num, dtype=np.int64)
        thresholds: list[float] = []
        probe_iters = np.zeros(num, dtype=np.int64)
        for i in range(num):
            start, stop = segs.bounds[i], segs.bounds[i + 1]
            mags = abs_block(flat, start, stop, scratch)
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

        d, sizes = layout.total_size, layout.sizes()
        ops = []
        for nnz, iters in zip(segs.per_worker(bucket_nnz), probe_iters.reshape(len(rows), -1)):
            ops.append([
                OpRecord("elementwise", d), OpRecord("reduce", d), OpRecord("reduce", d),
                *probe_round_ops(sizes, iters),
                OpRecord("elementwise", d), OpRecord("compact", d, nnz),
            ])
        return segs.split(flat, np.concatenate(idx_chunks), bucket_nnz, thresholds, ratio, ops)
