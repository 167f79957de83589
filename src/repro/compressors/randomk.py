"""Random-k sparsification baseline (Wangni et al., 2018 style)."""

from __future__ import annotations

import numpy as np

from .base import BucketedFit, Compressor, OpRecord
from .bucketed import bucket_target_ks, draw_per_state, grouped


class RandomK(Compressor):
    """Keep a uniformly random subset of ``k`` elements, rescaled by ``d/k``.

    The rescaling keeps the sparsified gradient unbiased
    (``E[C(g)] = g``), which is the standard Random-k estimator.  Selection is
    magnitude-oblivious, so its approximation error is far worse than Top-k —
    the reason the paper (like DGC) treats Top-k as the quality reference.
    """

    name = "randomk"

    def __init__(self, seed: int = 0, rescale: bool = True) -> None:
        self._rng = np.random.default_rng(seed)
        self.rescale = rescale

    @grouped
    def fit_all_buckets(self, rows: np.ndarray, layout, ratio: float, group) -> list[BucketedFit]:
        sizes, starts = layout.sizes(), layout.starts()
        ks = bucket_target_ks(sizes, ratio)

        # Draw each worker's samples in bucket order on its own generator (the
        # stream fitting the buckets one at a time would consume; workers in
        # one generator state draw once), then gather and rescale every
        # bucket in one pass.
        chosen = draw_per_state(
            group,
            lambda rng: np.concatenate(
                [start + rng.choice(size, size=k, replace=False)
                 for start, size, k in zip(starts.tolist(), sizes.tolist(), ks.tolist())]
            ),
        )
        scale = np.repeat(sizes / ks, ks) if self.rescale else None
        total_k = int(ks.sum())
        return [
            BucketedFit(
                indices=indices,
                values=row[indices] * scale if self.rescale else row[indices],
                bucket_nnz=ks,
                bucket_thresholds=[None] * layout.num_buckets,
                target_ratio=ratio,
                ops=[OpRecord("random_sample", row.size, total_k), OpRecord("compact", total_k, total_k)],
                metadata={"rescaled": self.rescale},
            )
            for row, indices in zip(rows, chosen)
        ]
