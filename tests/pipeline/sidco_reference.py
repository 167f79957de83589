"""The bucketed SIDCo fit as it stood before block-wise streaming: a test oracle.

``estimate_multi_stage_bucketed`` and ``fit_all_buckets`` below are the
whole-gradient implementations (one ``|g|`` array, global ``reduceat``
passes, a full-vector keep-mask), kept statement for statement so the
streaming implementation in :mod:`repro.pipeline.vectorized` can be held
bit-for-bit equal to them.  Their moments follow the scalar fit's formula
order (``sum(x - loc) / n``, the two-pass GP variance, gamma over the
positive magnitudes), as the library's do.  ``fit_all_buckets`` takes the
SIDCo instance as ``self`` and declines (``None``) a gradient with no tail.
The threshold formulas (``_fit_stage_thresholds``) and the op-trace helper
are shared with the library.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.compressors.base import BucketedFit, OpRecord
from repro.core.sidco import _abs_pass
from repro.core.threshold import MIN_STAGE_SAMPLE, stage_sid
from repro.pipeline.bucketing import BucketLayout
from repro.pipeline.vectorized import _batched_fit_ops, _fit_stage_thresholds
from repro.stats.fitting import SIDName, validate_sid


@dataclass
class BucketedThresholdEstimate:
    """Per-bucket thresholds from one batched multi-stage estimation."""

    thresholds: np.ndarray  # (num_buckets,) final per-bucket thresholds
    stages_used: np.ndarray  # (num_buckets,) stages actually fitted per bucket
    ops: list[OpRecord] = field(default_factory=list)

    @property
    def max_stages_used(self) -> int:
        return int(self.stages_used.max()) if self.stages_used.size else 0


def _per_bucket_reduce(flat: np.ndarray, layout: BucketLayout) -> np.ndarray:
    """Per-bucket sums of a flat vector (ragged-safe, one pass)."""
    if layout.num_buckets == 1:
        return np.asarray([flat.sum()], dtype=np.float64)
    return np.add.reduceat(flat, layout.starts())


def _segment_reduce(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-bucket sums of bucket-contiguous ``values``, ``counts`` per bucket; 0.0 where empty."""
    if counts.size == 1:
        return np.asarray([values.sum()], dtype=np.float64)
    sums = np.zeros(counts.size)
    nonempty = counts > 0
    if nonempty.any():
        sums[nonempty] = np.add.reduceat(values, (np.cumsum(counts) - counts)[nonempty])
    return sums


def _bucket_mask_and_counts(
    abs_flat: np.ndarray, layout: BucketLayout, thresholds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Boolean keep-mask ``|g| >= eta_bucket`` over the flat vector plus per-bucket counts.

    For uniform layouts the prefix is compared through a 2-D broadcast view and
    the ragged tail (when present) separately; layer-aware layouts with
    variable bucket sizes broadcast each bucket's threshold across its span
    instead.  ``+inf`` thresholds drop a bucket entirely.
    """
    if not layout.is_uniform:
        keep = abs_flat >= np.repeat(thresholds, layout.sizes())
        if layout.num_buckets == 1:
            counts = np.asarray([keep.sum()], dtype=np.int64)
        else:
            counts = np.add.reduceat(keep.astype(np.int64), layout.starts())
        return keep, counts
    d, size = layout.total_size, layout.bucket_size
    nfull = d // size
    keep = np.empty(d, dtype=bool)
    counts = np.zeros(layout.num_buckets, dtype=np.int64)
    if nfull:
        body = abs_flat[: nfull * size].reshape(nfull, size)
        body_keep = keep[: nfull * size].reshape(nfull, size)
        np.greater_equal(body, thresholds[:nfull, None], out=body_keep)
        counts[:nfull] = body_keep.sum(axis=1)
    if nfull * size < d:
        tail = abs_flat[nfull * size :] >= thresholds[nfull]
        keep[nfull * size :] = tail
        counts[nfull] = int(tail.sum())
    return keep, counts


def estimate_multi_stage_bucketed(
    abs_flat: np.ndarray,
    layout: BucketLayout,
    delta: float,
    sid: SIDName,
    num_stages: int,
    *,
    first_stage_ratio: float,
    min_stage_sample: int = MIN_STAGE_SAMPLE,
) -> BucketedThresholdEstimate:
    """Batched equivalent of per-bucket :func:`~repro.core.threshold.estimate_multi_stage`."""
    validate_sid(sid)
    if abs_flat.size != layout.total_size:
        raise ValueError(f"abs_flat has {abs_flat.size} elements, layout expects {layout.total_size}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if num_stages < 1:
        raise ValueError(f"num_stages must be >= 1, got {num_stages}")

    num = layout.num_buckets
    sizes = layout.sizes()
    target_k = delta * sizes.astype(np.float64)

    thresholds = np.full(num, np.inf)
    eta_prev = np.zeros(num)
    active = np.ones(num, dtype=bool)
    stages_used = np.zeros(num, dtype=np.int64)
    ops: list[OpRecord] = []

    # Current exceedance set: bucket-contiguous values + parallel bucket ids.
    # Stage one reduces straight off ``abs_flat`` instead.
    vals: np.ndarray | None = None
    ids: np.ndarray | None = None

    for m in range(num_stages):
        counts = sizes if m == 0 else np.bincount(ids, minlength=num)

        fallback = np.zeros(num, dtype=bool)
        if m == 0:
            # Tiny buckets: single-stage fit on the whole bucket at the raw
            # target ratio (the scalar estimator's fallback path).
            fallback = active & (counts < min_stage_sample)
        else:
            # Exceedance set too small to fit another stage: stop refining and
            # keep the previous stage's threshold.
            shrunk = active & (counts < min_stage_sample)
            thresholds[shrunk] = eta_prev[shrunk]
            active = active & ~shrunk
        if not active.any():
            break

        needed = np.where(counts > 0, target_k / np.maximum(counts, 1), np.inf)
        needed = np.minimum(needed, 0.999)
        remaining = num_stages - m
        if remaining == 1:
            is_last = active.copy()
        else:
            is_last = active & (needed >= first_stage_ratio)
        if m == 0:
            delta_m = np.where(is_last, needed, first_stage_ratio)
            delta_m = np.where(fallback, delta, delta_m)
            is_last = is_last | fallback
        else:
            geometric = np.array([x ** (1.0 / remaining) for x in needed.tolist()])
            delta_m = np.where(is_last, needed, np.maximum(geometric, needed))

        this_sid = stage_sid(sid, m)
        active_elems = int(counts[active].sum())
        if m == 0:
            sums = _per_bucket_reduce(abs_flat, layout)
            sqdev = pos_counts = pos_logsums = None
            if this_sid == "gpareto":
                dev = abs_flat - np.repeat(sums / sizes, sizes)
                sqdev = _per_bucket_reduce(dev * dev, layout)
            elif this_sid == "gamma":
                positive = abs_flat > 0.0
                pos_counts = np.bincount(layout.bucket_of(np.flatnonzero(positive)), minlength=num)
                sums = _segment_reduce(abs_flat[positive], pos_counts)
                pos_logsums = _segment_reduce(np.log(abs_flat[positive]), pos_counts)
            loc = np.zeros(num)
        else:
            excess = vals - eta_prev[ids]
            sums = _segment_reduce(excess, counts)
            sqdev = pos_counts = pos_logsums = None
            if this_sid == "gpareto":
                dev = excess - (sums / np.maximum(counts, 1))[ids]
                sqdev = _segment_reduce(dev * dev, counts)
            loc = eta_prev
        ops.extend(_batched_fit_ops(this_sid, active_elems))

        eta = _fit_stage_thresholds(
            this_sid, delta_m, counts, sums, sqdev, pos_counts, pos_logsums, loc, active
        )
        eta = np.maximum(eta, eta_prev)
        stages_used[active] += 1

        finished = active & is_last
        thresholds[finished] = eta[finished]
        eta_prev = np.where(active, eta, eta_prev)
        active = active & ~is_last
        if not active.any():
            break

        # Compact the exceedances of still-active buckets for the next stage.
        if m == 0:
            cutoff = np.where(active, eta_prev, np.inf)
            keep, kept_counts = _bucket_mask_and_counts(abs_flat, layout, cutoff)
            vals = abs_flat[keep]
            ids = np.repeat(np.arange(num), kept_counts)
            kept_total = int(kept_counts.sum())
            current_total = int(sizes.sum())
        else:
            cutoff = np.where(active, eta_prev, np.inf)
            keep = vals >= cutoff[ids]
            current_total = vals.size
            vals = vals[keep]
            ids = ids[keep]
            kept_total = vals.size
        ops.append(OpRecord("elementwise", current_total))
        ops.append(OpRecord("compact", current_total, kept_total))

    # Any bucket never finalised (loop exhausted while shrinking) keeps its
    # last stage threshold.
    unfinished = np.isinf(thresholds) & (eta_prev > 0.0) & (stages_used > 0)
    thresholds[unfinished] = eta_prev[unfinished]
    return BucketedThresholdEstimate(thresholds=thresholds, stages_used=stages_used, ops=ops)


def fit_all_buckets(self, gradient: np.ndarray, layout, ratio: float) -> BucketedFit | None:
    """Batched per-bucket SID fitting over the whole gradient at once.

    Declines (returns ``None``) on degenerate gradients with no tail to
    fit; the pipeline then falls back to the whole-vector degenerate
    handling of :meth:`compress`.  The stage controller is *not* observed
    here — the pipeline observes the global achieved selection once per
    call, exactly like the unbucketed compressor.
    """
    arr = np.asarray(gradient, dtype=np.float64).ravel()
    d = arr.size
    abs_flat = np.abs(arr)
    if d < 2 or float(abs_flat.max()) == 0.0:
        return None

    ops = [_abs_pass(d)]
    estimate = estimate_multi_stage_bucketed(
        abs_flat,
        layout,
        ratio,
        self.sid,
        self.controller.num_stages,
        first_stage_ratio=self.first_stage_ratio,
    )
    ops.extend(estimate.ops)
    mask, bucket_nnz = _bucket_mask_and_counts(abs_flat, layout, estimate.thresholds)
    ops.append(OpRecord("elementwise", d))
    ops.append(OpRecord("compact", d, int(bucket_nnz.sum())))
    indices = np.flatnonzero(mask)
    return BucketedFit(
        indices=indices,
        values=arr[indices],
        bucket_nnz=bucket_nnz,
        bucket_thresholds=estimate.thresholds,
        target_ratio=ratio,
        ops=ops,
        metadata={
            "sid": self.sid,
            "num_stages_configured": self.controller.num_stages,
            "stages_used": estimate.max_stages_used,
            "bucket_stages_used": estimate.stages_used,
        },
    )
