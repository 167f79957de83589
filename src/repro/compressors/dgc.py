"""Deep Gradient Compression (DGC) sampling-based threshold estimation.

DGC (Lin et al., 2018) estimates the Top-k threshold hierarchically:

1. draw a random subset of the gradient (default 1%),
2. run Top-k on that subset to find a candidate threshold,
3. select all elements above the candidate threshold,
4. if the selection overshoots the target ``k``, run Top-k again on the
   (much smaller) selected set to trim it down to exactly ``k``.

Its estimation quality is excellent (it effectively *is* Top-k on a sample)
but its cost is dominated by the random sampling, which is cheap on GPUs and
very expensive on CPUs — the asymmetry shown in Figure 1a vs 1b.
"""

from __future__ import annotations

import numpy as np

from .base import BucketedFit, Compressor, OpRecord
from .bucketed import abs_block, bucket_target_ks, concat_indices, full_bucket_stack, workspace_for


class DGC(Compressor):
    """Sample-based hierarchical Top-k threshold estimation.

    Parameters
    ----------
    sample_ratio:
        Fraction of the gradient to sample for the first-stage Top-k
        (the paper and the original DGC implementation use 1%).
    overshoot_trim:
        If the thresholded selection exceeds ``overshoot_trim * k`` the second
        Top-k pass is applied to trim it back to exactly ``k`` (the "invoke
        Top-k twice" worst case the paper footnotes).
    seed:
        Seed for the sampling generator, for reproducible traces.
    """

    name = "dgc"

    def __init__(self, sample_ratio: float = 0.01, overshoot_trim: float = 1.0, seed: int = 0) -> None:
        if not 0.0 < sample_ratio <= 1.0:
            raise ValueError(f"sample_ratio must be in (0, 1], got {sample_ratio}")
        if overshoot_trim < 1.0:
            raise ValueError(f"overshoot_trim must be >= 1, got {overshoot_trim}")
        self.sample_ratio = sample_ratio
        self.overshoot_trim = overshoot_trim
        self._seed = seed
        self._rng = np.random.default_rng(seed)

    def reset(self) -> None:
        self._rng = np.random.default_rng(self._seed)

    def fit_all_buckets(self, gradient: np.ndarray, layout, ratio: float) -> BucketedFit:
        arr = np.asarray(gradient, dtype=np.float64).ravel()
        sizes = layout.sizes()
        starts = layout.starts()
        num = layout.num_buckets
        ks = bucket_target_ks(sizes, ratio)

        # Stage 1: the per-bucket sample draws run in bucket order on the
        # shared generator (the stream fitting the buckets one at a time
        # would consume), then all buckets with equal sample shape fit their
        # Top-k threshold in one 2-D row-wise partition.
        sample_sizes = np.minimum(np.maximum(ks, np.ceil(self.sample_ratio * sizes).astype(np.int64)), sizes)
        sample_ks = bucket_target_ks(sample_sizes, ratio)
        sample_mags: list[np.ndarray] = []
        for i in range(num):
            sample_idx = self._rng.choice(int(sizes[i]), size=int(sample_sizes[i]), replace=False)
            sample_mags.append(np.abs(arr[starts[i] + sample_idx]))

        thresholds = np.empty(num)
        groups: dict[tuple[int, int], list[int]] = {}
        for i in range(num):
            ss, sk = int(sample_sizes[i]), int(sample_ks[i])
            if sk >= ss:
                thresholds[i] = float(sample_mags[i].min())
            else:
                groups.setdefault((ss, sk), []).append(i)
        for (ss, sk), members in groups.items():
            if len(members) == 1:
                i = members[0]
                thresholds[i] = float(np.partition(sample_mags[i], ss - sk)[ss - sk])
            else:
                stack = full_bucket_stack([sample_mags[i] for i in members])
                part = np.partition(stack, ss - sk, axis=1)[:, ss - sk]
                thresholds[members] = part

        # Stage 2: bucket-blocked threshold selection (with the worst-case
        # trim) through one cache-hot scratch buffer.
        scratch = workspace_for(layout)
        idx_chunks: list[np.ndarray] = []
        bucket_nnz = np.empty(num, dtype=np.int64)
        out_thresholds: list[float] = []
        stage2_selected = 0
        trim_sizes = 0
        trim_ks = 0
        for i in range(num):
            start, stop = layout.bounds(i)
            mags = abs_block(arr, start, stop, scratch)
            threshold = float(thresholds[i])
            k = int(ks[i])
            sel = np.flatnonzero(mags >= threshold)
            stage2_selected += sel.size
            if sel.size > self.overshoot_trim * k:
                sel_mags = mags[sel]
                keep = np.argpartition(sel_mags, sel.size - k)[sel.size - k :]
                threshold = float(sel_mags[keep].min())
                trim_sizes += sel.size
                trim_ks += k
                sel = sel[keep]
            idx_chunks.append(sel + start)
            bucket_nnz[i] = sel.size
            out_thresholds.append(threshold)

        total_sample = int(sample_sizes.sum())
        ops = [
            OpRecord("random_sample", arr.size, total_sample),
            OpRecord("elementwise", total_sample),
            OpRecord("topk_select", total_sample, int(sample_ks.sum())),
            OpRecord("elementwise", arr.size),
            OpRecord("compact", arr.size, stage2_selected),
        ]
        if trim_sizes:
            ops.append(OpRecord("topk_select", trim_sizes, trim_ks))

        indices = concat_indices(idx_chunks)
        return BucketedFit(
            indices=indices,
            values=arr[indices],
            bucket_nnz=bucket_nnz,
            bucket_thresholds=out_thresholds,
            target_ratio=ratio,
            ops=ops,
        )
