"""Shared helpers for batched bucket-axis compression (``fit_all_buckets``).

Every registry compressor implements
:meth:`~repro.compressors.base.Compressor.fit_all_buckets` on top of these
helpers: one call fits all buckets of a
:class:`~repro.pipeline.bucketing.BucketLayout`, replacing the per-bucket
Python ``compress`` loop with a single batched pass.

Two execution shapes coexist inside that pass, chosen per stage by what is
actually fast on a memory-bound CPU:

* **Cross-bucket vectorised algebra** for everything whose per-bucket work is
  small: threshold formulas, sample-quantile fits over 2-D
  ``(buckets, sample)`` stacks, target-``k`` arithmetic, fused op-trace
  accounting.  This is the same shape
  :func:`repro.pipeline.vectorized.estimate_multi_stage_bucketed` uses for
  SIDCo's stage fits.
* **Bucket-blocked element passes** for everything that streams the gradient:
  ``|g|`` materialisation, probe counts and the final selection run bucket by
  bucket into one persistent scratch buffer.  Running these stage-major
  instead (one whole-gradient 2-D op per probe stage) re-reads the full
  vector from RAM once per stage and measures *slower* than the scalar loop
  at acceptance scale; blocking keeps each bucket's few-MiB working set
  cache-hot across all of its stages while still issuing one fused launch per
  logical primitive in the op trace.  SIDCo's fit streams the same way, in
  blocks of whole buckets, and selects from its carried stage-one
  exceedances (see :mod:`repro.pipeline.vectorized`).

Bit-for-bit equivalence with the per-bucket loop is part of the contract, so
helpers here mirror the scalar helpers exactly: identical reduction orders
(contiguous 1-D pairwise reductions on the same values), identical rounding
(:func:`bucket_target_ks` is ``Compressor._target_k`` vectorised) and
identical selection order (ascending within each bucket, buckets
concatenated in layout order).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .base import OpRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (pipeline imports us)
    from ..pipeline.bucketing import BucketLayout


def bucket_target_ks(sizes: np.ndarray, ratio: float) -> np.ndarray:
    """Per-bucket ``max(1, round(ratio * size))`` — ``_target_k`` across the bucket axis.

    ``np.rint`` rounds half-to-even exactly like Python's ``round``, so each
    entry matches the scalar helper bit-for-bit.
    """
    sizes = np.asarray(sizes, dtype=np.float64)
    return np.maximum(1, np.rint(ratio * sizes).astype(np.int64))


def abs_block(arr: np.ndarray, start: int, stop: int, scratch: np.ndarray) -> np.ndarray:
    """``|arr[start:stop]|`` into the scratch prefix — no fresh allocation.

    The returned view is contiguous, so pairwise reductions over it are
    bit-identical to the same reductions over a freshly allocated
    ``np.abs(bucket_view)``.
    """
    out = scratch[: stop - start]
    np.abs(arr[start:stop], out=out)
    return out


def select_ge(mags: np.ndarray, threshold: float, start: int) -> np.ndarray:
    """Global indices of ``mags >= threshold`` for a bucket starting at ``start``.

    Ascending order, matching ``SparseGradient.from_mask`` on the bucket view.
    """
    idx = np.flatnonzero(mags >= threshold)
    idx += start
    return idx


def concat_indices(chunks: list[np.ndarray]) -> np.ndarray:
    """Bucket-major concatenation of per-bucket index selections."""
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(chunks)


def probe_round_ops(sizes: np.ndarray, iterations: np.ndarray) -> list[OpRecord]:
    """Fused trace of a data-dependent per-bucket probe search.

    Probe round ``r`` of the batched pass touches every bucket that is still
    searching at round ``r``; each round is one fused compare + one fused
    count across those buckets, rather than one launch pair per bucket per
    round as in the scalar loop.
    """
    ops: list[OpRecord] = []
    iterations = np.asarray(iterations, dtype=np.int64)
    for round_no in range(1, int(iterations.max(initial=0)) + 1):
        active = int(sizes[iterations >= round_no].sum())
        ops.append(OpRecord("elementwise", active))
        ops.append(OpRecord("reduce", active))
    return ops


def full_bucket_stack(values: list[np.ndarray]) -> np.ndarray:
    """Stack equal-length per-bucket 1-D arrays into a ``(buckets, n)`` matrix.

    Row-wise ``partition``/``argpartition``/reductions over the stack are
    bit-identical to the same 1-D call per row (C-contiguous equal-size rows),
    which is what lets sample-quantile fits batch across buckets.
    """
    return np.stack(values)


def workspace_for(layout: "BucketLayout") -> np.ndarray:
    """One float64 scratch buffer sized for the largest bucket.

    Allocated per ``fit_all_buckets`` call, so nothing heavy hangs off the
    compressor, and reused across every bucket block within the call.
    """
    return np.empty(int(layout.sizes().max()), dtype=np.float64)
