"""Exact Top-k sparsification (the reference compressor the paper competes with)."""

from __future__ import annotations

import numpy as np

from .base import BucketedFit, Compressor, OpRecord
from .bucketed import bucket_target_ks, grouped, segments, shape_groups, stack_segments


class TopK(Compressor):
    """Keep exactly the ``k = ratio * d`` largest-magnitude gradient elements.

    This is the strongest selection in terms of approximation error (it
    *defines* the best-k approximation), but also the most expensive: its
    operation trace contains a full Top-k selection over all ``d`` elements,
    which is what makes it slow on GPUs (Section 1.2).
    """

    name = "topk"

    @grouped
    def fit_all_buckets(self, rows: np.ndarray, layout, ratio: float, group) -> list[BucketedFit]:
        segs = segments(layout, len(rows))
        flat = rows.ravel()
        starts = segs.starts
        ks = np.tile(bucket_target_ks(layout.sizes(), ratio), len(rows))

        # Segments of one size share one k, so each size's argpartitions run
        # as one 2-D row-wise selection over their stack.  Each kept row lands
        # at its segment's place in the output.
        at = np.cumsum(ks) - ks
        indices = np.empty(int(ks.sum()), dtype=np.int64)
        thresholds = np.empty(ks.size)
        for members in shape_groups(segs.sizes):
            size, k = int(segs.sizes[members[0]]), int(ks[members[0]])
            mags = np.abs(stack_segments(flat, starts[members], size))
            if k >= size:
                kept = np.broadcast_to(np.arange(size), mags.shape)
            else:
                kept = np.argpartition(mags, size - k, axis=1)[:, size - k :]
            indices[at[members][:, None] + np.arange(k)] = kept + starts[members][:, None]
            thresholds[members] = mags[np.arange(members.size)[:, None], kept].min(axis=1)

        d, total = layout.total_size, segs.per_worker(ks)
        ops = [[OpRecord("elementwise", d), OpRecord("topk_select", d, k)] for k in total]
        return segs.split(flat, indices, ks, thresholds.tolist(), ratio, ops)


class NoCompression(Compressor):
    """Identity compressor: ships the dense gradient unchanged (the baseline)."""

    name = "none"

    @grouped
    def fit_all_buckets(self, rows: np.ndarray, layout, ratio: float, group) -> list[BucketedFit]:
        return [
            BucketedFit(
                indices=np.arange(row.size),
                values=row,
                bucket_nnz=layout.sizes(),
                bucket_thresholds=[None] * layout.num_buckets,
                target_ratio=1.0,
                ops=[OpRecord("elementwise", 0)],
                metadata={"dense": True},
            )
            for row in rows
        ]
