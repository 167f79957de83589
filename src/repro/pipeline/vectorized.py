"""Batched multi-stage SID threshold estimation over gradient buckets.

:func:`estimate_multi_stage_bucketed` is SIDCo's only threshold estimator
(the multi-stage loop of Algorithm 1, Sections 2.3-2.4).  It fits every bucket
of a :class:`~repro.pipeline.bucketing.BucketLayout` on its own, runs all
buckets through each fitting stage together, and selects each bucket's
elements at or above its final threshold; unbucketed SIDCo is its one-bucket
case.  It streams the gradient once, in blocks of whole buckets through one
reused scratch buffer per thread, so it allocates no array the size of the
gradient (unless one bucket is the whole gradient).  A ``(G, D)`` matrix of G
workers' gradients is fitted in the same pass over its (worker, bucket)
segments, and each worker gets the fit its own call makes:

* stage one fits each bucket from that bucket's own moments of ``|g|``, so
  each block is fitted as its moments land and its elements at or above
  their bucket's stage-one cutoff are kept from the ``|g|`` still in the
  scratch buffer;
* later stages reduce those carried exceedances, which lie contiguous by
  bucket.  Stage thresholds never decrease, so the final selection filters
  the carried set too;
* the closed-form thresholds (Corollaries 1.1-1.3, Lemma 2) are evaluated
  element-wise across the bucket axis.

Every moment follows the formula order of :mod:`repro.stats.fitting`: the
mean is ``sum(x - loc) / n``, the GP variance the two-pass ``sum((x - mu)**2)
/ n`` and gamma fits the positive magnitudes only.  Segment sums are
``.sum()`` per segment on one-bucket layouts and ``np.add.reduceat`` segments
otherwise, so a one-bucket fit equals the scalar fit of the whole gradient
bit for bit.

Per-bucket control flow (per-stage ratios, the ``is_last`` collapse, the
minimum-sample stopping rule, the single-stage fit of tiny buckets) is
tracked with boolean bucket masks.  A bucket whose fit is degenerate
(all-zero, a non-positive mean excess, or too few exceedances or no variance
for a GP moment match) gets a ``+inf`` threshold: it selects nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..compressors import bucketed
from ..compressors.base import OpRecord
from ..compressors.bucketed import abs_block
from ..core.threshold import MIN_STAGE_SAMPLE, stage_sid
from ..stats import special
from ..stats.fitting import SIDName, validate_sid
from .bucketing import BucketLayout

#: Matches ``GeneralizedPareto._SHAPE_EPS``: below this the GP quantile uses
#: its exponential limit.
_GP_SHAPE_EPS = 1e-8

@dataclass
class BucketedThresholdEstimate:
    """Per-segment ((worker, bucket), worker-major) results of one batched multi-stage estimation."""

    thresholds: np.ndarray  # (segments,) final per-segment thresholds
    stages_used: np.ndarray  # (segments,) stages actually fitted per segment
    indices: np.ndarray  # ascending flat indices of |g| >= their segment's threshold
    bucket_nnz: np.ndarray  # (segments,) selected elements per segment
    has_tail: np.ndarray  # (workers,) False where every |g| of the row is 0.0
    ops: list[list[OpRecord]]  # one trace per worker


def _segment_sums(values: np.ndarray, edges: np.ndarray, one_bucket: bool) -> np.ndarray:
    """Sums of ``values`` between consecutive ``edges`` (``edges[-1] == values.size``); 0.0 where empty.

    ``.sum()`` and ``reduceat`` segments round differently: one-bucket layouts
    take ``.sum()`` per segment, as the scalar fit's ``mean`` does.
    """
    if one_bucket:
        return np.array([values[a:b].sum() for a, b in zip(edges[:-1], edges[1:])])
    sums = np.zeros(edges.size - 1)
    nonempty = edges[1:] > edges[:-1]
    if nonempty.any():
        sums[nonempty] = np.add.reduceat(values, edges[:-1][nonempty])
    return sums


def _spread(per_bucket: np.ndarray, sizes: np.ndarray):
    """Each bucket's entry of ``per_bucket`` repeated over its ``sizes`` elements; a scalar for one bucket."""
    return per_bucket[0] if per_bucket.size == 1 else np.repeat(per_bucket, sizes)


def _flatnonzero_ge(mags: np.ndarray, cutoff, mask: np.ndarray) -> np.ndarray:
    """``np.flatnonzero(mags >= cutoff)`` in ``mask``, a bool buffer of ``n + n // 9 + 1`` or more.

    NumPy scans a bool array that is at most 10% set with one ``memchr`` per
    set entry, which takes about twice as long as its branchless scan of a
    denser array once 5% are set (stage one keeps 8.5% of
    ``compress-sidco``'s gradient).  Such a mask gets trailing ``True``
    entries that lift it past 10%, and their indices are cut off.
    """
    n = mags.size
    hit = np.greater_equal(mags, cutoff, out=mask[:n])
    count = np.count_nonzero(hit)
    if not n // 20 < count <= n // 10:
        return np.flatnonzero(hit)
    pad = (n - 10 * count) // 9 + 1
    mask[n : n + pad] = True
    return np.flatnonzero(mask[: n + pad])[:count]


def _stage_one_moments(arr: np.ndarray, segs, sid: str, delta_1: np.ndarray):
    """Stage one in the only pass over the gradient: ``(sums, carried)``.

    Per block, takes each segment's moments of ``|g|``, fits its stage-one
    threshold at ratio ``delta_1`` (clamped at 0, as later stages are at the
    one before) and carries the block's elements at or above it, read from
    the scratch buffer that still holds the block's ``|g|``.  ``sums`` are
    the segments' sums of ``|g|``; ``carried.cutoff`` holds the thresholds.
    Blocks are independent: :func:`~repro.compressors.bucketed.drain_blocks`
    may share them between threads, each with its own scratch, and each
    block writes only its own segments' entries.

    Gamma fits the positive magnitudes only: its ``sums`` are theirs, with
    their count and log-sum.  The GP SID also takes ``sqdev``, each segment's
    sum of squared deviations from its mean.  A segment's sum is non-finite
    when it holds a NaN or an infinity, or when finite magnitudes overflow;
    only then is the max read.
    """
    num, one_bucket = segs.sizes.size, segs.buckets == 1
    sums, sqdev, pos_counts, pos_logsums = np.empty(num), None, None, None
    if sid == "gpareto":
        sqdev = np.empty(num)
    elif sid == "gamma":
        pos_counts, pos_logsums = np.empty(num, dtype=np.int64), np.empty(num)
    carried = _Exceedances(segs, np.empty(num))

    def drain(blocks):
        scratch = segs.scratch()
        mask = segs.scratch("mask", bool, scratch.size // 9 + 1)
        work = segs.scratch("work") if sqdev is not None else None
        for i in blocks:
            start, stop, b0, b1, edges = segs.blocks[i]
            mags = abs_block(arr, start, stop, scratch)
            sizes = segs.sizes[b0:b1]
            values, at = mags, edges
            if pos_counts is not None:
                # ``~(<= 0)`` keeps NaNs, which must reach the finiteness check.
                kept = np.flatnonzero(~(mags <= 0.0))
                values, at = mags[kept], np.searchsorted(kept, edges)
                pos_counts[b0:b1] = np.diff(at)
            sums[b0:b1] = _segment_sums(values, at, one_bucket)
            if not np.isfinite(sums[b0:b1]).all() and not math.isfinite(mags.max()):
                raise ValueError("gradient contains NaN or infinite values")
            if sqdev is not None:
                dev = np.subtract(mags, _spread(sums[b0:b1] / sizes, sizes), out=work[: stop - start])
                sqdev[b0:b1] = _segment_sums(np.multiply(dev, dev, out=dev), edges, one_bucket)
            elif pos_counts is not None:
                pos_logsums[b0:b1] = _segment_sums(np.log(values), at, one_bucket)
            eta = _fit_stage_thresholds(
                sid, delta_1[b0:b1], sizes, sums[b0:b1],
                *(None if a is None else a[b0:b1] for a in (sqdev, pos_counts, pos_logsums)),
                np.zeros(b1 - b0), np.ones(b1 - b0, dtype=bool),
            )
            cutoff = carried.cutoff[b0:b1] = np.maximum(eta, 0.0)
            hits = _flatnonzero_ge(mags, _spread(cutoff, sizes), mask)
            carried.carry(i, hits, mags[hits])

    bucketed.drain_blocks(segs, drain)
    return sums, carried


class _Exceedances:
    """Per block, the elements at or above their bucket's cutoff (from stage one on).

    A block carries ``(indices, values, at)``: ascending block-relative
    indices, their ``|g|`` and each bucket's first position among them (plus
    their count).  ``counts`` holds the carried elements per bucket,
    ``cutoff`` the cutoffs last applied.  :func:`_stage_one_moments` fills
    every block as it streams.
    """

    def __init__(self, segs, cutoff: np.ndarray):
        self.blocks, self.cutoff, self.one_bucket = segs.blocks, cutoff, segs.buckets == 1
        self.counts = np.empty(segs.sizes.size, dtype=np.int64)
        self.carried: list = [None] * len(self.blocks)

    def carry(self, i: int, indices: np.ndarray, values: np.ndarray) -> None:
        """Carry ``indices`` (block-relative, ascending) and their ``values`` for block ``i``."""
        _, _, b0, b1, edges = self.blocks[i]
        at = np.searchsorted(indices, edges)
        self.counts[b0:b1] = at[1:] - at[:-1]
        self.carried[i] = (indices, values, at)

    def moments(self, active: np.ndarray, loc: np.ndarray, squares: bool) -> tuple[np.ndarray, ...]:
        """Per-bucket sums of the carried values' excess over ``loc`` (and of its squared deviations).

        Taken for the blocks holding an active bucket; each bucket's carried
        values lie contiguous, so they reduce as segments like stage one.
        """
        sums, sqdev = np.zeros(active.size), np.zeros(active.size) if squares else None
        for (_, _, b0, b1, _), (_, values, at) in zip(self.blocks, self.carried):
            if active[b0:b1].any():
                counts = self.counts[b0:b1]
                excess = values - _spread(loc[b0:b1], counts)
                sums[b0:b1] = _segment_sums(excess, at, self.one_bucket)
                if squares:
                    excess -= _spread(sums[b0:b1] / np.maximum(counts, 1), counts)
                    sqdev[b0:b1] = _segment_sums(np.multiply(excess, excess, out=excess), at, self.one_bucket)
        return sums, sqdev

    def compact(self, cutoff: np.ndarray) -> None:
        """Keep the carried elements at or above ``cutoff`` where it rose (it never falls)."""
        changed, self.cutoff = cutoff != self.cutoff, cutoff
        for i, (_, _, b0, b1, _) in enumerate(self.blocks):
            if changed[b0:b1].any():
                indices, values, _ = self.carried[i]
                keep = np.flatnonzero(values >= _spread(cutoff[b0:b1], self.counts[b0:b1]))
                self.carry(i, indices[keep], values[keep])

    def selection(self) -> np.ndarray:
        """Ascending flat indices of every carried element."""
        return np.concatenate([c[0] + block[0] for block, c in zip(self.blocks, self.carried)])


def _fit_stage_thresholds(
    sid: str,
    delta_m: np.ndarray,
    counts: np.ndarray,
    sums: np.ndarray,
    sqdev: np.ndarray | None,
    pos_counts: np.ndarray | None,
    pos_logsums: np.ndarray | None,
    loc: np.ndarray,
    mask: np.ndarray,
) -> np.ndarray:
    """Vectorised ``Thresh_Estimation`` across the bucket axis.

    Mirrors :func:`repro.stats.fitting.estimate_threshold` bucket-wise, from
    the sums of each bucket's excess over ``loc`` (gamma: of its positive
    magnitudes) and, for GP, of its squared deviations.  Buckets outside
    ``mask`` or with degenerate moments get ``+inf``.
    """
    num = delta_m.size
    eta = np.full(num, np.inf)
    cnt = np.maximum(counts, 1).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if sid == "exponential":
            mean = sums / cnt
            ok = mask & (counts > 0) & (mean > 0.0)
            eta[ok] = mean[ok] * np.log(1.0 / delta_m[ok]) + loc[ok]
        elif sid == "gamma":
            # Gamma fitting only ever happens at stage one (loc == 0) and, like
            # Gamma.fit, uses the strictly-positive sample only.
            pcnt = np.maximum(pos_counts, 1).astype(np.float64)
            mean = sums / pcnt
            ok = mask & (pos_counts > 0) & (mean > 0.0)
            s = np.log(mean[ok]) - pos_logsums[ok] / pcnt[ok]
            # Minka's shape bucket by bucket, as Gamma.fit evaluates it: its
            # ``** 2`` (libm ``pow``) and an array square round differently.
            shape = np.clip([special.minka_gamma_shape(x) for x in s.tolist()], 1e-6, 1e6)
            raw = -(mean[ok] / shape) * (np.log(delta_m[ok]) + special.log_gamma(shape))
            eta[ok] = np.maximum(raw, 0.0) + loc[ok]
        else:  # gpareto
            mu = sums / cnt
            var = sqdev / cnt
            ok = mask & (counts >= 2) & (mu > 0.0) & (var > 0.0)
            ratio2 = np.where(ok, mu * mu / np.where(var > 0.0, var, 1.0), 1.0)
            shape = np.clip(0.5 * (1.0 - ratio2), -0.499, 0.499)
            scale = np.maximum(0.5 * mu * (ratio2 + 1.0), 1e-300)
            exp_limit = scale * np.log(1.0 / np.maximum(delta_m, 1e-300))
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                general = scale / np.where(np.abs(shape) < _GP_SHAPE_EPS, 1.0, shape) * (
                    np.exp(-shape * np.log(np.maximum(delta_m, 1e-300))) - 1.0
                )
            quantile = np.where(np.abs(shape) < _GP_SHAPE_EPS, exp_limit, general)
            eta[ok] = loc[ok] + quantile[ok]
    return eta


def estimate_multi_stage_bucketed(
    gradient: np.ndarray,
    layout: BucketLayout,
    delta: float,
    sid: SIDName,
    num_stages: int,
    *,
    first_stage_ratio: float,
    min_stage_sample: int = MIN_STAGE_SAMPLE,
) -> BucketedThresholdEstimate:
    """SIDCo's multi-stage peak-over-threshold fit of every bucket, plus each bucket's selection.

    Each stage fits the SID of :func:`~repro.core.threshold.stage_sid` to the
    bucket's current exceedances, takes the threshold for its per-stage ratio
    and filters.  Stage one uses ``first_stage_ratio``, intermediate stages
    split the remaining gap geometrically and the last one targets exactly
    ``k`` out of the exceedances the previous stage actually kept (Section
    2.4's ``delta_2 = k_2 / k_1``), so each stage corrects the fitting error of
    the one before it.  A bucket smaller than ``min_stage_sample`` gets one
    stage at ``delta``; one whose exceedances shrink below it keeps its last
    threshold.

    ``gradient`` may be signed or already ``|g|``; a NaN or infinite element
    raises ``ValueError``.  A ``(G, D)`` gradient fits G rows in one pass: the
    estimate then covers their (worker, bucket) segments and the flattened
    matrix, and each row's part, trace included, equals a call on that row.
    """
    validate_sid(sid)
    rows = np.asarray(gradient, dtype=np.float64)
    rows = rows.reshape(-1, rows.shape[-1]) if rows.ndim > 1 else rows.reshape(1, -1)
    if rows.shape[1] != layout.total_size:
        raise ValueError(f"gradient has {rows.shape[1]} elements, layout expects {layout.total_size}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if num_stages < 1:
        raise ValueError(f"num_stages must be >= 1, got {num_stages}")

    workers, arr = len(rows), rows.ravel()
    segs = bucketed.segments(layout, workers)
    sizes, num = segs.sizes, segs.sizes.size
    target_k = delta * sizes.astype(np.float64)
    needed = np.minimum(np.where(sizes > 0, target_k / np.maximum(sizes, 1), np.inf), 0.999)
    # Stage one's inputs follow from the bucket sizes.  Tiny buckets get a
    # single-stage fit on the whole bucket at the raw target ratio.
    fallback = sizes < min_stage_sample
    is_last = fallback | (num_stages == 1) | (needed >= first_stage_ratio)
    delta_1 = np.where(fallback, delta, np.where(is_last, needed, first_stage_ratio))
    first_sid = stage_sid(sid, 0)
    sums, carried = _stage_one_moments(arr, segs, first_sid, delta_1)
    eta, counts = carried.cutoff, sizes

    # Each bucket's latest stage threshold: its final one once it stops fitting.
    thresholds = np.zeros(num)
    active = np.ones(num, dtype=bool)
    stages_used = np.zeros(num, dtype=np.int64)
    ops = [_batched_fit_ops(first_sid, n) for n in segs.per_worker(sizes)]
    # Workers still in the stage loop: a worker's own call leaves the loop
    # once none of its buckets is active, so its trace stops there too.
    live = np.ones(workers, dtype=bool)

    # Settle stage m - 1, then fit stage m over the carried exceedances.  The
    # last stage settles every bucket, so the loop always ends at a break.
    for m in range(1, num_stages + 1):
        stages_used[active] += 1
        thresholds = np.where(active, eta, thresholds)
        active = active & ~is_last
        live &= active.reshape(workers, -1).any(axis=1)
        if not live.any():
            break
        # Still-fitting buckets carry their exceedances of this stage's eta
        # into the next; finished ones carry their final selection.  Stage
        # one's cutoffs were applied as it streamed.
        carried.compact(thresholds)
        streamed = segs.per_worker(counts)
        kept = segs.per_worker(np.where(active, carried.counts, 0))
        for g in np.flatnonzero(live).tolist():
            ops[g] += [OpRecord("elementwise", streamed[g]), OpRecord("compact", streamed[g], kept[g])]

        counts = np.where(active, carried.counts, 0)
        # Exceedance set too small to fit another stage: stop refining and
        # keep the previous stage's threshold.
        active = active & (counts >= min_stage_sample)
        live &= active.reshape(workers, -1).any(axis=1)
        if not live.any():
            break

        needed = np.minimum(np.where(counts > 0, target_k / np.maximum(counts, 1), np.inf), 0.999)
        remaining = num_stages - m
        is_last = active.copy() if remaining == 1 else active & (needed >= first_stage_ratio)
        # Python's ``**`` (libm ``pow``), as the scalar fit: ``np.power``
        # over an array rounds differently.
        geometric, refine = needed.copy(), active & ~is_last
        geometric[refine] = [x ** (1.0 / remaining) for x in needed[refine].tolist()]
        delta_m = np.where(is_last, needed, np.maximum(geometric, needed))

        this_sid = stage_sid(sid, m)
        active_elems = segs.per_worker(np.where(active, counts, 0))
        for g in np.flatnonzero(live).tolist():
            ops[g].extend(_batched_fit_ops(this_sid, active_elems[g]))
        moments = carried.moments(active, thresholds, this_sid == "gpareto")
        eta = _fit_stage_thresholds(this_sid, delta_m, counts, *moments, None, None, thresholds, active)
        eta = np.maximum(eta, thresholds)

    carried.compact(thresholds)
    return BucketedThresholdEstimate(
        thresholds=thresholds,
        stages_used=stages_used,
        indices=carried.selection(),
        bucket_nnz=carried.counts,
        has_tail=sums.reshape(workers, -1).any(axis=1),
        ops=ops,
    )


def _batched_fit_ops(sid: str, size: int) -> list[OpRecord]:
    """Primitive trace of one batched (all-buckets-at-once) SID fit over ``size`` elements.

    Exponential: one mean reduction; gamma: a log pass with its reduction plus
    the mean; generalized Pareto: mean + variance.  One launch per primitive
    covers every active bucket, the modelling counterpart of the batching.
    """
    if sid == "exponential":
        return [OpRecord("reduce", size)]
    if sid == "gamma":
        return [OpRecord("log_reduce", size), OpRecord("reduce", size)]
    return [OpRecord("reduce", size), OpRecord("reduce", size)]
