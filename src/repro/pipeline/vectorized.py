"""Batched multi-stage SID threshold estimation over gradient buckets.

:func:`estimate_multi_stage_bucketed` reproduces
:func:`repro.core.threshold.estimate_multi_stage` independently for every
bucket of a :class:`~repro.pipeline.bucketing.BucketLayout`, runs all buckets
through each fitting stage together, and selects each bucket's elements at or
above its final threshold.  It streams the gradient in blocks of whole
buckets through one reused scratch buffer, so it allocates no array the size
of the gradient (unless one bucket is the whole gradient):

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
from dataclasses import dataclass, field

import numpy as np

from ..compressors.base import OpRecord
from ..compressors.bucketed import abs_block
from ..core.threshold import MIN_STAGE_SAMPLE, stage_sid
from ..stats import special
from ..stats.fitting import SIDName, validate_sid
from .bucketing import BucketLayout

#: Matches ``GeneralizedPareto._SHAPE_EPS``: below this the GP quantile uses
#: its exponential limit.
_GP_SHAPE_EPS = 1e-8

#: Most elements in a block of consecutive whole buckets (a larger bucket is a
#: block of its own).  Many tiny buckets share one block, so the NumPy call
#: count of a fit does not grow with the bucket count.
_BLOCK_ELEMENTS = 1 << 18


@dataclass
class BucketedThresholdEstimate:
    """Per-bucket thresholds and selections from one batched multi-stage estimation."""

    thresholds: np.ndarray  # (num_buckets,) final per-bucket thresholds
    stages_used: np.ndarray  # (num_buckets,) stages actually fitted per bucket
    indices: np.ndarray  # ascending flat indices of |g| >= their bucket's threshold
    bucket_nnz: np.ndarray  # (num_buckets,) selected elements per bucket
    has_tail: bool  # False when every |g| is 0.0: there is nothing to fit
    ops: list[OpRecord] = field(default_factory=list)


@functools.lru_cache(maxsize=64)
def _plan(layout: BucketLayout) -> tuple[np.ndarray, tuple[tuple, ...]]:
    """Bucket sizes and the greedily filled blocks ``(start, stop, b0, b1, edges)``.

    ``edges`` are the block's bucket starts and its stop, relative to
    ``start``.  The arrays are shared between calls, so they are read-only.
    """
    sizes = layout.sizes()
    sizes.flags.writeable = False
    bounds = layout.starts().tolist() + [layout.total_size]
    blocks, b0 = [], 0
    for b in range(1, len(sizes) + 1):
        if b == len(sizes) or bounds[b + 1] - bounds[b0] > _BLOCK_ELEMENTS:
            edges = np.asarray(bounds[b0 : b + 1]) - bounds[b0]
            edges.flags.writeable = False
            blocks.append((bounds[b0], bounds[b], b0, b, edges))
            b0 = b
    return sizes, tuple(blocks)


def _stage_one_moments(arr: np.ndarray, blocks: tuple, num: int, sid: str, scratch: np.ndarray):
    """Pass 1: ``(sums, sumsq, pos_counts, pos_logsums)`` of each bucket's ``|g|``.

    ``sumsq`` is only taken for the GP SID, the positive count and log-sum
    only for gamma.  A bucket's sum is non-finite when it holds a NaN or an
    infinity, or when finite magnitudes overflow; only then is the max read.
    """
    sums, sumsq, pos_counts, pos_logsums = np.empty(num), None, None, None
    if sid == "gpareto":
        sumsq, work = np.empty(num), np.empty_like(scratch)
    elif sid == "gamma":
        pos_counts, pos_logsums = np.empty(num), np.empty(num)
    # Block 0 last: pass 2 starts with it and finds its |g| still in the scratch buffer.
    for start, stop, b0, b1, edges in reversed(blocks):
        mags = abs_block(arr, start, stop, scratch)
        # ``.sum()`` and segments round differently; one-bucket pins use ``.sum()``.
        segment_sums = np.sum if num == 1 else functools.partial(np.add.reduceat, indices=edges[:-1])
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
            reuse = i == 0 and stop - start <= _BLOCK_ELEMENTS
            # Elements are independent here, so a bucket larger than a block
            # is compared in block-sized pieces that stay cache-resident.
            hits, values = [], []
            for lo in range(start, stop, _BLOCK_ELEMENTS):
                hi = min(lo + _BLOCK_ELEMENTS, stop)
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
    raises ``ValueError``.
    """
    validate_sid(sid)
    arr = np.asarray(gradient, dtype=np.float64).ravel()
    if arr.size != layout.total_size:
        raise ValueError(f"gradient has {arr.size} elements, layout expects {layout.total_size}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if num_stages < 1:
        raise ValueError(f"num_stages must be >= 1, got {num_stages}")

    num = layout.num_buckets
    sizes, blocks = _plan(layout)
    target_k = delta * sizes.astype(np.float64)
    scratch = np.empty(max(block[1] - block[0] for block in blocks))
    stage_one = _stage_one_moments(arr, blocks, num, stage_sid(sid, 0), scratch)

    thresholds = np.full(num, np.inf)
    eta_prev = np.zeros(num)
    active = np.ones(num, dtype=bool)
    stages_used = np.zeros(num, dtype=np.int64)
    ops: list[OpRecord] = []

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
            geometric = np.power(needed, 1.0 / remaining)
            delta_m = np.where(is_last, needed, np.maximum(geometric, needed))

        this_sid = stage_sid(sid, m)
        active_elems = int(counts[active].sum())
        if m == 0:
            sums, sumsq, pos_counts, pos_logsums = stage_one
            loc = np.zeros(num)
        else:
            sums, sumsq = carried.moments(active, this_sid == "gpareto")
            pos_counts = pos_logsums = None
            loc = eta_prev
        ops.extend(_batched_fit_ops(this_sid, active_elems))

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
            carried = _Exceedances(arr, blocks, sizes, cutoff, scratch)
        if not active.any():
            break
        if m > 0:
            carried.compact(cutoff)
        ops.append(OpRecord("elementwise", int(counts.sum())))
        ops.append(OpRecord("compact", int(counts.sum()), int(carried.counts[active].sum())))

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
        has_tail=bool(stage_one[0].any()),
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
