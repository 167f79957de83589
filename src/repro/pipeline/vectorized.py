"""Batched multi-stage SID threshold estimation over gradient buckets.

:func:`estimate_multi_stage_bucketed` reproduces
:func:`repro.core.threshold.estimate_multi_stage` independently for every
bucket of a :class:`~repro.pipeline.bucketing.BucketLayout`, runs all buckets
through each fitting stage together, and selects each bucket's elements at or
above its final threshold.  It streams the gradient in blocks of whole
buckets through one reused scratch buffer, so it allocates no array the size
of the gradient (unless one bucket is the whole gradient).  A ``(G, D)``
matrix of G workers' gradients is fitted in the same pass over its
(worker, bucket) segments, and each worker gets the fit its own call makes:

* pass 1 takes each bucket's stage-one moments of ``|g|`` as
  ``np.add.reduceat`` segments of its block;
* pass 2 keeps each bucket's elements at or above its stage-one cutoff;
* later stages are per-block ``np.bincount`` reductions over those carried
  exceedances.  Stage thresholds never decrease, so the final selection
  filters the carried set too;
* the closed-form thresholds (Corollaries 1.1-1.3, Lemma 2) are evaluated
  element-wise across the bucket axis.

Per-bucket control flow (per-stage ratios, the ``is_last`` collapse, the
minimum-sample stopping rule, the single-stage fallback for tiny buckets)
follows the scalar estimator exactly, tracked with boolean bucket masks, so
the thresholds agree with a per-bucket scalar loop up to floating-point
reduction order.  Buckets whose fit would be degenerate (all-zero, or too few
exceedances for a GP moment match) — cases where the scalar estimator raises
— get a ``+inf`` threshold instead, i.e. they simply select nothing.
"""

from __future__ import annotations

import functools
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


def _stage_one_moments(arr: np.ndarray, segs, sid: str, scratch: np.ndarray):
    """Pass 1: ``(sums, sumsq, pos_counts, pos_logsums)`` of each segment's ``|g|``.

    ``sumsq`` is only taken for the GP SID, the positive count and log-sum
    only for gamma.  A segment's sum is non-finite when it holds a NaN or an
    infinity, or when finite magnitudes overflow; only then is the max read.
    """
    num = segs.sizes.size
    sums, sumsq, pos_counts, pos_logsums = np.empty(num), None, None, None
    if sid == "gpareto":
        sumsq, work = np.empty(num), np.empty_like(scratch)
    elif sid == "gamma":
        pos_counts, pos_logsums = np.empty(num), np.empty(num)
    # Block 0 last: pass 2 starts with it and finds its |g| still in the scratch buffer.
    for start, stop, b0, b1, edges in reversed(segs.blocks):
        mags = abs_block(arr, start, stop, scratch)
        # ``.sum()`` and segments round differently; one-bucket pins use ``.sum()``.
        if segs.buckets == 1:
            def segment_sums(values, edges=edges):
                return [values[a:b].sum() for a, b in zip(edges[:-1], edges[1:])]
        else:
            segment_sums = functools.partial(np.add.reduceat, indices=edges[:-1])
        sums[b0:b1] = segment_sums(mags)
        if not np.isfinite(sums[b0:b1]).all() and not math.isfinite(mags.max()):
            raise ValueError("gradient contains NaN or infinite values")
        if sumsq is not None:
            sumsq[b0:b1] = segment_sums(np.multiply(mags, mags, out=work[: stop - start]))
        elif pos_counts is not None:
            positive = mags > 0.0
            pos_counts[b0:b1] = segment_sums(positive.astype(np.float64))
            pos_logsums[b0:b1] = segment_sums(np.log(np.where(positive, mags, 1.0)))
    return sums, sumsq, None if pos_counts is None else pos_counts.astype(np.int64), pos_logsums


class _Exceedances:
    """Per block, the elements at or above their bucket's cutoff (pass 2 onwards).

    A block carries ``(indices, values, ids)``: ascending block-relative
    indices, their ``|g|`` and their block-local bucket ids.  ``counts`` holds
    the carried elements per bucket, ``cutoff`` the cutoffs last applied.
    """

    def __init__(self, arr, blocks: tuple, sizes: np.ndarray, cutoff: np.ndarray, scratch: np.ndarray):
        self.blocks, self.cutoff = blocks, cutoff
        self.counts = np.empty(sizes.size, dtype=np.int64)
        self.carried: list = [None] * len(blocks)
        for i, (start, stop, b0, b1, _) in enumerate(blocks):
            spread = cutoff[b0] if b1 - b0 == 1 else np.repeat(cutoff[b0:b1], sizes[b0:b1])
            # Pass 1 ends on block 0: a one-piece block 0 is still in scratch.
            reuse = i == 0 and stop - start <= bucketed.BLOCK_ELEMENTS
            # Elements are independent here, so a bucket larger than a block
            # is compared in block-sized pieces that stay cache-resident.
            hits, values = [], []
            for lo in range(start, stop, bucketed.BLOCK_ELEMENTS):
                hi = min(lo + bucketed.BLOCK_ELEMENTS, stop)
                mags = scratch[: hi - lo] if reuse else abs_block(arr, lo, hi, scratch)
                hit = np.flatnonzero(mags >= spread)
                values.append(mags[hit])
                hit += lo - start
                hits.append(hit)
            if len(hits) > 1:
                hits, values = [np.concatenate(hits)], [np.concatenate(values)]
            self._carry(i, hits[0], values[0])

    def _carry(self, i: int, indices: np.ndarray, values: np.ndarray) -> None:
        _, _, b0, b1, edges = self.blocks[i]
        at = np.searchsorted(indices, edges)
        self.counts[b0:b1] = at[1:] - at[:-1]
        self.carried[i] = (indices, values, np.repeat(np.arange(b1 - b0), self.counts[b0:b1]))

    def moments(self, active: np.ndarray, squares: bool) -> tuple[np.ndarray, np.ndarray | None]:
        """Per-bucket sums (and sums of squares) of the values carried for active buckets.

        ``bincount`` adds each bin's weights one by one in element order, so
        a bucket's sum is the whole-gradient ``bincount``'s bit for bit.
        """
        sums, sumsq = np.zeros(active.size), np.zeros(active.size) if squares else None
        for (_, _, b0, b1, _), (_, values, ids) in zip(self.blocks, self.carried):
            if active[b0:b1].any():
                sums[b0:b1] = np.bincount(ids, weights=values, minlength=b1 - b0)
                if squares:
                    sumsq[b0:b1] = np.bincount(ids, weights=values * values, minlength=b1 - b0)
        return sums, sumsq

    def compact(self, cutoff: np.ndarray) -> None:
        """Keep the carried elements at or above ``cutoff`` where it rose (it never falls)."""
        changed, self.cutoff = cutoff != self.cutoff, cutoff
        for i, (_, _, b0, b1, _) in enumerate(self.blocks):
            if changed[b0:b1].any():
                indices, values, ids = self.carried[i]
                keep = np.flatnonzero(values >= (cutoff[b0] if b1 - b0 == 1 else cutoff[b0:b1][ids]))
                self._carry(i, indices[keep], values[keep])

    def selection(self) -> np.ndarray:
        """Ascending flat indices of every carried element."""
        return np.concatenate([c[0] + block[0] for block, c in zip(self.blocks, self.carried)])


def _fit_stage_thresholds(
    sid: str,
    delta_m: np.ndarray,
    counts: np.ndarray,
    sums: np.ndarray,
    sumsq: np.ndarray | None,
    pos_counts: np.ndarray | None,
    pos_logsums: np.ndarray | None,
    loc: np.ndarray,
    mask: np.ndarray,
) -> np.ndarray:
    """Vectorised ``Thresh_Estimation`` across the bucket axis.

    Mirrors :func:`repro.stats.fitting.estimate_threshold` bucket-wise;
    buckets outside ``mask`` or with degenerate moments get ``+inf``.
    """
    num = delta_m.size
    eta = np.full(num, np.inf)
    cnt = np.maximum(counts, 1).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if sid == "exponential":
            mean = sums / cnt - loc
            ok = mask & (counts > 0) & (mean > 0.0)
            eta[ok] = mean[ok] * np.log(1.0 / delta_m[ok]) + loc[ok]
        elif sid == "gamma":
            # Gamma fitting only ever happens at stage one (loc == 0) and, like
            # the scalar Gamma.fit, uses the strictly-positive sample only.
            pcnt = np.maximum(pos_counts, 1).astype(np.float64)
            mean = sums / pcnt
            s = np.log(np.maximum(mean, 1e-300)) - pos_logsums / pcnt
            shape = np.where(
                s <= 0.0,
                1e6,
                (3.0 - s + np.sqrt((s - 3.0) ** 2 + 24.0 * s)) / np.maximum(12.0 * s, 1e-300),
            )
            shape = np.clip(shape, 1e-6, 1e6)
            scale = mean / shape
            ok = mask & (pos_counts > 0) & (mean > 0.0)
            raw = -scale * (np.log(delta_m) + special.log_gamma(shape))
            eta[ok] = np.maximum(raw, 0.0)[ok] + loc[ok]
        else:  # gpareto
            mu = sums / cnt - loc
            ex2 = (sumsq - 2.0 * loc * sums) / cnt + loc * loc
            var = ex2 - mu * mu
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
    """Batched per-bucket :func:`~repro.core.threshold.estimate_multi_stage`, plus each bucket's selection.

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
    scratch = segs.scratch()
    stage_one = _stage_one_moments(arr, segs, stage_sid(sid, 0), scratch)

    thresholds = np.full(num, np.inf)
    eta_prev = np.zeros(num)
    active = np.ones(num, dtype=bool)
    stages_used = np.zeros(num, dtype=np.int64)
    ops: list[list[OpRecord]] = [[] for _ in range(workers)]
    # Workers still in the stage loop: a worker's own call leaves the loop
    # once none of its buckets is active, so its trace stops there too.
    live = np.ones(workers, dtype=bool)

    # Stage one reduces in pass 1; later stages over the carried exceedances.
    carried: _Exceedances | None = None

    for m in range(num_stages):
        counts = sizes if m == 0 else np.where(active, carried.counts, 0)

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
        live &= active.reshape(workers, -1).any(axis=1)
        if not live.any():
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
            geometric = np.power(needed, 1.0 / remaining)
            delta_m = np.where(is_last, needed, np.maximum(geometric, needed))

        this_sid = stage_sid(sid, m)
        active_elems = segs.per_worker(np.where(active, counts, 0))
        if m == 0:
            sums, sumsq, pos_counts, pos_logsums = stage_one
            loc = np.zeros(num)
        else:
            sums, sumsq = carried.moments(active, this_sid == "gpareto")
            pos_counts = pos_logsums = None
            loc = eta_prev
        for g in np.flatnonzero(live).tolist():
            ops[g].extend(_batched_fit_ops(this_sid, active_elems[g]))

        eta = _fit_stage_thresholds(
            this_sid, delta_m, counts, sums, sumsq, pos_counts, pos_logsums, loc, active
        )
        eta = np.maximum(eta, eta_prev)
        stages_used[active] += 1

        finished = active & is_last
        thresholds[finished] = eta[finished]
        eta_prev = np.where(active, eta, eta_prev)
        active = active & ~is_last
        # Still-fitting buckets carry their exceedances of this stage's eta
        # into the next; finished ones carry their final selection.
        cutoff = np.where(active, eta_prev, thresholds)
        if m == 0:
            carried = _Exceedances(arr, segs.blocks, sizes, cutoff, scratch)
        live &= active.reshape(workers, -1).any(axis=1)
        if not live.any():
            break
        if m > 0:
            carried.compact(cutoff)
        streamed = segs.per_worker(counts)
        kept = segs.per_worker(np.where(active, carried.counts, 0))
        for g in np.flatnonzero(live).tolist():
            ops[g] += [OpRecord("elementwise", streamed[g]), OpRecord("compact", streamed[g], kept[g])]

    # Any bucket never finalised (loop exhausted while shrinking) keeps its
    # last stage threshold.
    unfinished = np.isinf(thresholds) & (eta_prev > 0.0) & (stages_used > 0)
    thresholds[unfinished] = eta_prev[unfinished]
    carried.compact(thresholds)
    return BucketedThresholdEstimate(
        thresholds=thresholds,
        stages_used=stages_used,
        indices=carried.selection(),
        bucket_nnz=carried.counts,
        has_tail=stage_one[0].reshape(workers, -1).any(axis=1),
        ops=ops,
    )


def _batched_fit_ops(sid: str, size: int) -> list[OpRecord]:
    """Primitive trace of one batched (all-buckets-at-once) SID fit.

    Sizes mirror :func:`repro.core.threshold._fit_ops` but cover every active
    bucket in a single fused pass, so there is one launch per primitive rather
    than one per bucket — the modelling counterpart of the vectorisation.
    """
    if sid == "exponential":
        return [OpRecord("reduce", size)]
    if sid == "gamma":
        return [OpRecord("log_reduce", size), OpRecord("reduce", size)]
    return [OpRecord("reduce", size), OpRecord("reduce", size)]
