"""Shared helpers for batched compression (``fit_all_buckets``).

Every compressor implements
:meth:`~repro.compressors.base.Compressor.fit_all_buckets` on top of these
helpers, as its only implementation: one call fits every (worker, bucket)
*segment* of a ``(G, D)`` matrix of G workers' gradients, whose
:class:`~repro.pipeline.bucketing.BucketLayout` tiles it G times
(:class:`Segments`).  Unbucketed ``compress`` is the one-bucket case and one
gradient the G = 1 case.

Small per-segment work (thresholds, sample quantiles, target ``k``, op
traces) is vectorised across segments: row-wise ``partition``,
``argpartition`` and reductions over a C-contiguous stack of equal-length rows
are bit-identical to the same 1-D call per row.  Element passes stream through
one cache-hot scratch buffer, segment by segment or in blocks of whole
segments; SIDCo's stage one shares a large fit's blocks between the calling
thread and helper threads (:func:`repro.blockpool.drain_blocks`).
Per-segment arithmetic stays exact (contiguous 1-D pairwise reductions,
:func:`bucket_target_ks` rounding like ``Compressor._target_k``, ascending
selection within each segment, segments in layout order), so each segment's
selection is bit-for-bit the one-bucket fit of that bucket alone.
"""

from __future__ import annotations

import functools
import pickle
import threading
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .base import BucketedFit, OpRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (pipeline imports us)
    from ..pipeline.bucketing import BucketLayout

#: Most elements in a block of consecutive whole segments (a larger segment is
#: a block of its own), so a fit's NumPy call count does not grow with them.
BLOCK_ELEMENTS = 1 << 16

#: Fewest elements a SIDCo fit streams, in two or more blocks, before its
#: stage one shares them with helper threads
#: (:func:`repro.blockpool.drain_blocks`).  Below it a helper costs more than
#: it saves.  Best of five SIDCo-e calls on a 2-vCPU x86 VM, the caller alone
#: against the caller plus one helper:
#:
#: ========  ==========  =======  ===============
#: elements  block size  serial   caller + helper
#: ========  ==========  =======  ===============
#: 2^17      2^16        0.60 ms  0.74 ms
#: 2^18      2^16        0.96 ms  1.29 ms
#: 2^20      2^16        3.51 ms  3.49 ms
#: 2^22      2^16        14.4 ms  12.4 ms
#: 2^22      2^18        14.2 ms  9.3 ms
#: ========  ==========  =======  ===============
THREADED_ELEMENTS = 1 << 21

#: Most elements of the scratch buffer a thread keeps between fits: one
#: default bucket (4 MiB of fp32).  A fit's first call allocates it and later
#: calls reuse it, so no fit hands an 8 MiB buffer back to the C heap.
#: Whether the allocator then returns those pages to the OS, for the next
#: call to fault in again, depends on what else the heap holds, so a fresh
#: buffer per call makes the same fit's cost differ from process to process.
KEPT_SCRATCH_ELEMENTS = 1 << 20

_kept = threading.local()


def bucket_target_ks(sizes: np.ndarray, ratio: float) -> np.ndarray:
    """Per-bucket ``max(1, round(ratio * size))`` — ``_target_k`` across the bucket axis.

    ``np.rint`` rounds half-to-even exactly like Python's ``round``, so each
    entry matches the scalar helper bit-for-bit.
    """
    sizes = np.asarray(sizes, dtype=np.float64)
    return np.maximum(1, np.rint(ratio * sizes).astype(np.int64))


class Segments:
    """The (worker, bucket) segments of a ``(workers, D)`` matrix, ``layout`` being one row's.

    ``starts`` and ``sizes`` are every segment's, ``bounds`` the starts and
    the matrix's end, ``blocks`` the greedy blocks ``(start, stop, s0, s1,
    edges)`` of whole segments (``edges``: their starts and the stop, relative
    to ``start``).  :func:`segments` memoizes them, so the arrays are read-only.
    """

    def __init__(self, layout: "BucketLayout", workers: int = 1) -> None:
        self.layout, self.workers, self.buckets = layout, workers, layout.num_buckets
        offsets = np.arange(workers, dtype=np.int64)[:, None] * layout.total_size
        self.starts = (layout.starts() + offsets).ravel()
        self.sizes = np.tile(layout.sizes(), workers)
        self.starts.flags.writeable = self.sizes.flags.writeable = False
        self.bounds = bounds = self.starts.tolist() + [layout.total_size * workers]
        blocks, s0 = [], 0
        for s in range(1, self.sizes.size + 1):
            if s == self.sizes.size or bounds[s + 1] - bounds[s0] > BLOCK_ELEMENTS:
                edges = np.asarray(bounds[s0 : s + 1]) - bounds[s0]
                edges.flags.writeable = False
                blocks.append((bounds[s0], bounds[s], s0, s, edges))
                s0 = s
        self.blocks = tuple(blocks)
        self.largest = max(stop - start for start, stop, *_ in blocks)

    def scratch(self, name: str = "scratch", dtype=np.float64, extra: int = 0) -> np.ndarray:
        """A buffer of the largest block's size plus ``extra``, reused across one call's blocks.

        When that block holds at most :data:`KEPT_SCRATCH_ELEMENTS`, it is a
        prefix of the calling thread's kept buffer ``name`` (grown when a
        larger fit needs it), so the next fit in this thread overwrites it;
        otherwise it is a fresh buffer.  No fit returns a view of it.
        """
        size = self.largest + extra
        if self.largest > KEPT_SCRATCH_ELEMENTS:
            return np.empty(size, dtype)
        kept = getattr(_kept, name, None)
        if kept is None or kept.size < size:
            kept = np.empty(size, dtype)
            setattr(_kept, name, kept)
        return kept[:size]

    def per_worker(self, values: np.ndarray) -> list:
        """Per-worker sums of a per-segment array, as Python numbers."""
        return np.asarray(values).reshape(self.workers, self.buckets).sum(axis=1).tolist()

    def split(self, flat, indices, bucket_nnz, thresholds, ratio, ops, metadata=()):
        """One :class:`BucketedFit` per worker from a fit over every segment.

        ``indices`` index ``flat`` segment-major and come back row-relative;
        ``ops`` and ``metadata`` hold one entry per worker.
        """
        values, d, b = flat[indices], self.layout.total_size, self.buckets
        ends = np.cumsum(bucket_nnz)[b - 1 :: b].tolist()
        return [
            BucketedFit(
                indices=indices[lo:hi] - g * d if g else indices[lo:hi],
                values=values[lo:hi],
                bucket_nnz=bucket_nnz[g * b : (g + 1) * b],
                bucket_thresholds=thresholds[g * b : (g + 1) * b],
                target_ratio=ratio,
                ops=ops[g],
                metadata=metadata[g] if metadata else {},
            )
            for g, (lo, hi) in enumerate(zip([0, *ends], ends))
        ]


#: :class:`Segments` memoized per ``(layout, workers)``.
segments = functools.lru_cache(maxsize=64)(Segments)


def grouped(fit):
    """Give a group fit ``fit(self, rows, layout, ratio, group)`` the ``fit_all_buckets`` signature.

    With ``group``, ``gradient`` is the ``(len(group), D)`` matrix and one fit
    per row comes back; without, one gradient is fitted with ``self``.
    """

    @functools.wraps(fit)
    def fit_all_buckets(self, gradient, layout, ratio, group=None):
        rows = np.asarray(gradient, dtype=np.float64)
        if group is None:
            return fit(self, rows.reshape(1, -1), layout, ratio, (self,))[0]
        return fit(self, rows, layout, ratio, tuple(group))

    fit_all_buckets.grouped = True
    return fit_all_buckets


def fit_group(compressor, rows: np.ndarray, layout, ratio: float, group: Sequence) -> list:
    """``fit_all_buckets`` over a group, one member per row.

    A ``fit_all_buckets`` written for one gradient is called once per row.
    """
    if len(group) != len(rows):
        raise ValueError(f"{len(rows)} gradients for a group of {len(group)} compressors")
    if getattr(compressor.fit_all_buckets, "grouped", False):
        return compressor.fit_all_buckets(rows, layout, ratio, group=group)
    return [member.fit_all_buckets(row, layout, ratio) for member, row in zip(group, rows, strict=True)]


def draw_per_state(group: Sequence, draw) -> list[np.ndarray]:
    """``draw(generator)`` for every member's ``_rng``, drawing once per distinct state.

    Generators in identical ``bit_generator.state`` draw identical numbers, so
    the first draws and the others adopt its post-draw state, exactly where
    their own draws would leave them.  A trainer seeds its workers alike.
    """
    drawn, out = {}, []
    for member in group:
        bits = member._rng.bit_generator
        key = pickle.dumps(bits.state)
        if key not in drawn:
            drawn[key] = (draw(member._rng), bits.state)
        bits.state = drawn[key][1]
        out.append(drawn[key][0])
    return out


def shape_groups(*keys: np.ndarray) -> list[np.ndarray]:
    """Ascending positions of each distinct combination of equal-length non-negative int ``keys``."""
    key = np.asarray(keys[0], dtype=np.int64)
    for more in keys[1:]:
        key = key * (int(more.max(initial=0)) + 1) + more
    order = np.argsort(key, kind="stable")
    bounds = [0, *(np.flatnonzero(np.diff(key[order])) + 1).tolist(), key.size]
    return [order[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]


def stack_segments(values: np.ndarray, starts: np.ndarray, size: int) -> np.ndarray:
    """``values[..., s : s + size]`` for every start ``s`` as the rows of a 2-D stack.

    A slice where the segments lie back to back (full uniform buckets), else a gather.
    """
    if (np.diff(starts) == size).all():
        return values[..., starts[0] : starts[0] + starts.size * size].reshape(-1, size)
    return values[..., starts[:, None] + np.arange(size)].reshape(-1, size)


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


def probe_round_ops(sizes: np.ndarray, iterations: np.ndarray) -> list[OpRecord]:
    """Fused trace of a data-dependent per-bucket probe search.

    Probe round ``r`` of the batched pass touches every bucket that is still
    searching at round ``r``; each round is one fused compare + one fused
    count across those buckets, rather than one launch pair per bucket per
    round as in a per-bucket loop.
    """
    ops: list[OpRecord] = []
    iterations = np.asarray(iterations, dtype=np.int64)
    for round_no in range(1, int(iterations.max(initial=0)) + 1):
        active = int(sizes[iterations >= round_no].sum())
        ops.append(OpRecord("elementwise", active))
        ops.append(OpRecord("reduce", active))
    return ops
