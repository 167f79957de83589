"""Random-k sparsification baseline (Wangni et al., 2018 style)."""

from __future__ import annotations

import numpy as np

from .base import BucketedFit, Compressor, OpRecord
from .bucketed import bucket_target_ks, concat_indices


class RandomK(Compressor):
    """Keep a uniformly random subset of ``k`` elements, rescaled by ``d/k``.

    The rescaling keeps the sparsified gradient unbiased
    (``E[C(g)] = g``), which is the standard Random-k estimator.  Selection is
    magnitude-oblivious, so its approximation error is far worse than Top-k —
    the reason the paper (like DGC) treats Top-k as the quality reference.
    """

    name = "randomk"

    def __init__(self, seed: int = 0, rescale: bool = True) -> None:
        self._seed = seed
        self._rng = np.random.default_rng(seed)
        self.rescale = rescale

    def reset(self) -> None:
        self._rng = np.random.default_rng(self._seed)

    def fit_all_buckets(self, gradient: np.ndarray, layout, ratio: float) -> BucketedFit:
        arr = np.asarray(gradient, dtype=np.float64).ravel()
        sizes = layout.sizes()
        starts = layout.starts()
        ks = bucket_target_ks(sizes, ratio)

        # Draw each bucket's sample in bucket order on the shared generator
        # (the stream fitting the buckets one at a time would consume), then
        # gather and rescale every bucket in one pass.
        idx_chunks = [
            starts[i] + self._rng.choice(int(sizes[i]), size=int(ks[i]), replace=False)
            for i in range(layout.num_buckets)
        ]
        indices = concat_indices(idx_chunks)
        values = arr[indices]
        if self.rescale:
            values = values * np.repeat(sizes / ks, ks)

        total_k = int(ks.sum())
        return BucketedFit(
            indices=indices,
            values=values,
            bucket_nnz=ks,
            bucket_thresholds=[None] * layout.num_buckets,
            target_ratio=ratio,
            ops=[OpRecord("random_sample", arr.size, total_k), OpRecord("compact", total_k, total_k)],
            metadata={"rescaled": self.rescale},
        )
