"""Compressor interface shared by SIDCo and every baseline.

A compressor turns a dense gradient vector into a :class:`SparseGradient`
given a target compression ratio ``delta = k / d``.  Besides the sparse
result, every call records:

* the threshold it applied (if threshold-based),
* the achieved ratio ``k_hat / d``,
* an *operation trace*: the sequence of vectorised primitives (sorts,
  selections, reductions, samples, element-wise passes) it executed and their
  input sizes.

The operation trace is what the device performance model
(:mod:`repro.perfmodel`) consumes to estimate compression latency on GPU-like
and CPU-like devices, reproducing the micro-benchmarks of Figures 1, 12 and
14-17 without real accelerator hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..tensor.sparse import SparseGradient

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (pipeline imports us)
    from ..pipeline.bucketing import BucketLayout


@dataclass(frozen=True)
class OpRecord:
    """One vectorised primitive executed during compression.

    ``op`` is one of the primitive names understood by
    :mod:`repro.perfmodel.costs` (``sort``, ``topk_select``, ``random_sample``,
    ``reduce``, ``elementwise``, ``compact``, ``log_reduce``).  ``size`` is the
    number of elements the primitive touched and ``k`` the selection size where
    relevant (e.g. Top-k selection).
    """

    op: str
    size: int
    k: int = 0


@dataclass
class CompressionResult:
    """Output of a single ``compress`` call."""

    sparse: SparseGradient
    target_ratio: float
    threshold: float | None = None
    ops: list[OpRecord] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    @property
    def achieved_ratio(self) -> float:
        """The achieved compression ratio ``k_hat / d``."""
        return self.sparse.density

    @property
    def achieved_k(self) -> int:
        return self.sparse.nnz

    @property
    def estimation_quality(self) -> float:
        """``k_hat / k`` — the normalised estimation quality of Figures 1c, 3c, 5b, 6c."""
        expected_k = self.target_ratio * self.sparse.dense_size
        if expected_k <= 0:
            return float("nan")
        return self.sparse.nnz / expected_k


@dataclass
class BucketedFit:
    """Per-bucket selections from one batched ``fit_all_buckets`` pass.

    The arrays are bucket-major: bucket 0's selection first, then bucket 1's,
    each in the within-bucket order a one-bucket fit of that bucket alone
    produces.  ``Compressor.compress`` packages the one-bucket fit as a
    :class:`CompressionResult`; the pipeline packages the many-bucket fit.
    """

    #: global flat indices of the kept elements, bucket-major
    indices: np.ndarray
    #: transmitted values aligned with ``indices`` (rescaled where the
    #: compressor rescales, e.g. Random-k's ``d/k`` factor per bucket)
    values: np.ndarray
    #: (num_buckets,) number of kept elements per bucket
    bucket_nnz: np.ndarray
    #: per-bucket thresholds; ``None`` (or ``+inf``) where the bucket's
    #: selection is not threshold-based or the bucket selected nothing
    bucket_thresholds: "Sequence[float | None] | np.ndarray"
    #: the effective target ratio (``NoCompression`` normalises it to 1.0)
    target_ratio: float
    #: fused operation trace: one launch per primitive across all buckets
    ops: list[OpRecord] = field(default_factory=list)
    #: compressor-specific extras merged into the result metadata
    metadata: dict = field(default_factory=dict)


class Compressor:
    """Base class of every gradient compressor.

    A compressor is its :meth:`fit_all_buckets`: ``compress`` is the
    one-bucket case of it (:meth:`compress_group` over a group of workers),
    and :class:`~repro.pipeline.CompressionPipeline` calls it over a
    many-bucket layout.

    Compressors may keep internal state that evolves across training
    iterations (e.g. SIDCo's stage controller); ``reset`` clears it so one
    instance can be reused across independent runs.
    """

    #: short identifier used by the registry, figures, and reports
    name: str = "base"

    def compress(self, gradient: np.ndarray, ratio: float) -> CompressionResult:
        """Compress ``gradient`` targeting ``ratio = k/d`` kept elements.

        Fits the whole gradient as one bucket and packages the fit; the
        result carries the fit's own metadata and no per-bucket keys.
        """
        [result] = self.compress_group(self._validate(gradient, ratio)[None], ratio)
        return result

    def compress_group(self, gradients: np.ndarray, ratio: float, group=None) -> list[CompressionResult]:
        """Compress row g of the ``(G, D)`` matrix ``gradients`` with ``group[g]`` (default ``[self]``).

        One call fits every row; each result, and each member's state
        afterwards, is exactly what ``group[g].compress(gradients[g], ratio)``
        gives.  The members share ``self``'s configuration; a group whose
        length is not G raises ``ValueError``.
        """
        # Deferred import: repro.pipeline imports this module at load time.
        from ..pipeline.bucketing import BucketLayout
        from .bucketed import fit_group

        rows = np.asarray(gradients, dtype=np.float64)
        d = self._validate(rows[0], ratio).size
        return [
            CompressionResult(
                sparse=SparseGradient(indices=fit.indices, values=fit.values, dense_size=d),
                target_ratio=fit.target_ratio,
                threshold=None if fit.bucket_thresholds[0] is None else float(fit.bucket_thresholds[0]),
                ops=fit.ops,
                metadata=fit.metadata,
            )
            for fit in fit_group(self, rows, BucketLayout(total_size=d, bucket_size=d), ratio, group or [self])
        ]

    def reset(self) -> None:
        """Clear any cross-iteration state (no-op by default)."""

    def fit_all_buckets(
        self, gradient: np.ndarray, layout: "BucketLayout", ratio: float, group=None
    ) -> "BucketedFit | list[BucketedFit]":
        """Batched bucket-axis compression: fit every bucket in one call.

        Take the validated flat gradient plus the
        :class:`~repro.pipeline.bucketing.BucketLayout` that tiles it, and
        return the per-bucket thresholds/selections of *all* buckets from one
        batched NumPy pass, with one fused launch per primitive in the op
        trace.  With a ``group`` of G compressors, ``gradient`` is ``(G, D)``
        and one fit per row comes back, row g fitted with ``group[g]``'s
        state exactly as its own call would (:func:`~.bucketed.grouped`).

        Each bucket's selection is the one a one-bucket fit of that bucket
        alone would make: same kept indices and values bit-for-bit, and
        stateful compressors leave their cross-call state (RNG streams,
        adaptive scales) exactly as fitting the buckets one by one in order
        would.
        """
        raise NotImplementedError(f"{type(self).__name__} does not implement fit_all_buckets")

    # -- shared helpers ----------------------------------------------------

    @staticmethod
    def _validate(gradient: np.ndarray, ratio: float) -> np.ndarray:
        arr = np.asarray(gradient, dtype=np.float64).ravel()
        if arr.size == 0:
            raise ValueError("cannot compress an empty gradient")
        if not 0.0 < ratio <= 1.0:
            raise ValueError(f"ratio must be in (0, 1], got {ratio}")
        return arr

    @staticmethod
    def _target_k(size: int, ratio: float) -> int:
        """Number of elements to keep: ``max(1, round(ratio * d))``."""
        return max(1, int(round(ratio * size)))
