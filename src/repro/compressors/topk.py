"""Exact Top-k sparsification (the reference compressor the paper competes with)."""

from __future__ import annotations

import numpy as np

from .base import BucketedFit, Compressor, OpRecord
from .bucketed import bucket_target_ks, concat_indices


class TopK(Compressor):
    """Keep exactly the ``k = ratio * d`` largest-magnitude gradient elements.

    This is the strongest selection in terms of approximation error (it
    *defines* the best-k approximation), but also the most expensive: its
    operation trace contains a full Top-k selection over all ``d`` elements,
    which is what makes it slow on GPUs (Section 1.2).
    """

    name = "topk"

    def fit_all_buckets(self, gradient: np.ndarray, layout, ratio: float) -> BucketedFit:
        arr = np.asarray(gradient, dtype=np.float64).ravel()
        sizes = layout.sizes()
        ks = bucket_target_ks(sizes, ratio)

        # Full uniform buckets share one (size, k), so their argpartitions run
        # as a single 2-D row-wise selection; the ragged tail (and non-uniform
        # layouts) fall through to per-bucket views of the same computation.
        idx_chunks: list[np.ndarray] = []
        thresholds: list[float] = []
        nfull = 0
        if layout.is_uniform:
            nfull = layout.total_size // layout.bucket_size
        if nfull:
            size = layout.bucket_size
            k = int(ks[0])
            mags = np.abs(arr[: nfull * size].reshape(nfull, size))
            if k >= size:
                rows = np.broadcast_to(np.arange(size), (nfull, size))
            else:
                rows = np.argpartition(mags, size - k, axis=1)[:, size - k :]
            offsets = np.arange(nfull, dtype=np.int64)[:, None] * size
            idx_chunks.append((rows + offsets).ravel())
            kept_mags = np.take_along_axis(mags, rows, axis=1)
            thresholds.extend(float(t) for t in kept_mags.min(axis=1))
        for i in range(nfull, layout.num_buckets):
            start, stop = layout.bounds(i)
            view = arr[start:stop]
            size, k = stop - start, int(ks[i])
            mags = np.abs(view)
            if k >= size:
                local = np.arange(size)
            else:
                local = np.argpartition(mags, size - k)[size - k :]
            idx_chunks.append(local + start)
            thresholds.append(float(mags[local].min()))

        indices = concat_indices(idx_chunks)
        return BucketedFit(
            indices=indices,
            values=arr[indices],
            bucket_nnz=ks,
            bucket_thresholds=thresholds,
            target_ratio=ratio,
            ops=[
                OpRecord("elementwise", arr.size),
                OpRecord("topk_select", arr.size, int(ks.sum())),
            ],
        )


class NoCompression(Compressor):
    """Identity compressor: ships the dense gradient unchanged (the baseline)."""

    name = "none"

    def fit_all_buckets(self, gradient: np.ndarray, layout, ratio: float = 1.0) -> BucketedFit:
        arr = np.asarray(gradient, dtype=np.float64).ravel()
        return BucketedFit(
            indices=np.arange(arr.size),
            values=arr,
            bucket_nnz=layout.sizes(),
            bucket_thresholds=[None] * layout.num_buckets,
            target_ratio=1.0,
            ops=[OpRecord("elementwise", 0)],
            metadata={"dense": True},
        )
