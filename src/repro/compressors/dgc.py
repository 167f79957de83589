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
from .bucketed import (
    abs_block, bucket_target_ks, draw_per_state, grouped, segments, shape_groups, stack_segments,
)


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
        self._rng = np.random.default_rng(seed)

    @grouped
    def fit_all_buckets(self, rows: np.ndarray, layout, ratio: float, group) -> list[BucketedFit]:
        segs = segments(layout, len(rows))
        flat = rows.ravel()
        sizes, starts = layout.sizes(), layout.starts()
        ks = bucket_target_ks(sizes, ratio)

        # Stage 1: each worker's sample draws run in bucket order on its own
        # generator (the stream fitting its buckets one at a time would
        # consume; workers in one generator state draw once), then every
        # (worker, bucket) segment with one sample shape fits its Top-k
        # threshold in one 2-D row-wise partition.
        sample_sizes = np.minimum(np.maximum(ks, np.ceil(self.sample_ratio * sizes).astype(np.int64)), sizes)
        sample_ks = bucket_target_ks(sample_sizes, ratio)
        columns = draw_per_state(
            group,
            lambda rng: np.concatenate(
                [start + rng.choice(size, size=sample, replace=False)
                 for start, size, sample in zip(starts.tolist(), sizes.tolist(), sample_sizes.tolist())]
            ),
        )
        row_starts = np.arange(len(rows))[:, None] * layout.total_size
        sample_mags = np.abs(flat[np.stack(columns) + row_starts])
        offsets = np.cumsum(sample_sizes) - sample_sizes
        thresholds = np.empty((len(rows), layout.num_buckets))
        for members in shape_groups(sample_sizes, sample_ks):
            sample, k = int(sample_sizes[members[0]]), int(sample_ks[members[0]])
            stack = stack_segments(sample_mags, offsets[members], sample)
            if k >= sample:
                kth_mags = stack.min(axis=1)
            else:
                kth_mags = np.partition(stack, sample - k, axis=1)[:, sample - k]
            thresholds[:, members] = kth_mags.reshape(len(rows), -1)
        thresholds = thresholds.ravel()
        ks = np.tile(ks, len(rows))

        # Stage 2: threshold selection in blocks of whole segments through
        # one cache-hot scratch buffer, then the worst-case trims, batched
        # by (selected, k) shape; a trimmed segment keeps its Top-k in
        # argpartition order.
        scratch = segs.scratch()
        hits, hit_mags, counts = [], [], np.empty(ks.size, dtype=np.int64)
        for start, stop, s0, s1, edges in segs.blocks:
            mags = abs_block(flat, start, stop, scratch)
            spread = thresholds[s0] if s1 - s0 == 1 else np.repeat(thresholds[s0:s1], segs.sizes[s0:s1])
            hit = np.flatnonzero(mags >= spread)
            counts[s0:s1] = np.diff(np.searchsorted(hit, edges))
            hit_mags.append(mags[hit])
            hit += start
            hits.append(hit)
        selected, selected_mags = np.concatenate(hits), np.concatenate(hit_mags)
        trim = counts > self.overshoot_trim * ks
        nnz = np.where(trim, ks, counts)
        first = np.cumsum(counts) - counts
        at = np.cumsum(nnz) - nnz
        source = np.arange(int(nnz.sum())) + np.repeat(first - at, nnz)
        trimmed = np.flatnonzero(trim)
        for members in shape_groups(counts[trimmed], ks[trimmed]):
            members = trimmed[members]
            seg = members[0]
            count, k, lo, out = int(counts[seg]), int(ks[seg]), int(first[seg]), int(at[seg])
            # argpartition leaves the k-th largest, the kept minimum, first.
            if members.size == 1:
                keep = np.argpartition(selected_mags[lo : lo + count], count - k)[count - k :]
                thresholds[seg] = selected_mags[lo + keep[0]]
                source[out : out + k] = keep + lo
                continue
            stack = selected_mags[first[members][:, None] + np.arange(count)]
            keep = np.argpartition(stack, count - k, axis=1)[:, count - k :]
            thresholds[members] = stack[np.arange(members.size), keep[:, 0]]
            source[at[members][:, None] + np.arange(k)] = first[members][:, None] + keep

        d, sampled = layout.total_size, int(sample_sizes.sum())
        ops = []
        for kept, trims, trim_k in zip(
            segs.per_worker(counts), segs.per_worker(counts * trim), segs.per_worker(ks * trim)
        ):
            ops.append([
                OpRecord("random_sample", d, sampled),
                OpRecord("elementwise", sampled),
                OpRecord("topk_select", sampled, int(sample_ks.sum())),
                OpRecord("elementwise", d),
                OpRecord("compact", d, kept),
                *([OpRecord("topk_select", trims, trim_k)] if trims else []),
            ])
        return segs.split(flat, selected[source], nnz, thresholds.tolist(), ratio, ops)
