"""Bucketed compression pipeline.

:class:`CompressionPipeline` wraps any :class:`~repro.compressors.base.Compressor`
and applies it per fixed-size bucket of the flattened gradient (DDP-style),
merging the per-bucket sparse selections into one global
:class:`~repro.tensor.sparse.SparseGradient`.  Every result carries per-bucket
payload sizes in its metadata so the timeline model can price communication
bucket by bucket (the prerequisite for modelling compute/communication
overlap).

The pipeline does not loop over buckets: the wrapped compressor's
:meth:`~repro.compressors.base.Compressor.fit_all_buckets` fits *all* buckets
in one batched NumPy pass (of every worker's buckets, for
:meth:`CompressionPipeline.compress_group`) and the pipeline packages the
returned :class:`~repro.compressors.base.BucketedFit`.  An unbucketed ``compress`` is
the same fit over a one-bucket layout.  For SIDCo the batched pass is
:func:`~repro.pipeline.vectorized.estimate_multi_stage_bucketed`, and the
wrapped instance's stage controller observes the global achieved selection
once per call inside the fit, exactly like the unbucketed compressor.
"""

from __future__ import annotations

import functools

import numpy as np

from ..compressors.base import BucketedFit, Compressor, CompressionResult
from ..compressors.bucketed import fit_group
from ..tensor.flatten import FlatSpec
from ..tensor.sparse import FLOAT_BYTES, INDEX_BYTES, SparseGradient
from .bucketing import DEFAULT_BUCKET_BYTES, BucketLayout


class CompressionPipeline(Compressor):
    """Split-compress-merge pipeline over fixed-size gradient buckets.

    Parameters
    ----------
    compressor:
        The per-bucket compressor (an instance, or a registry name).
    bucket_bytes:
        Wire-payload budget per bucket; the element count per bucket is
        ``bucket_bytes // element_bytes``.  Defaults to 4 MiB of fp32.
    element_bytes:
        Bytes per dense gradient element on the wire (fp32 by default).
    flat_spec:
        Optional layer layout of the flattened gradient.  When set, gradients
        whose size matches the spec are bucketed layer-aware
        (:meth:`BucketLayout.from_flat_spec`): bucket boundaries snap to layer
        boundaries DDP-style and per-bucket gradient-ready fractions are
        recorded for the overlap-aware iteration schedule.
    """

    def __init__(
        self,
        compressor: Compressor | str,
        *,
        bucket_bytes: int = DEFAULT_BUCKET_BYTES,
        element_bytes: int = FLOAT_BYTES,
        flat_spec: FlatSpec | None = None,
    ) -> None:
        if isinstance(compressor, str):
            # Deferred import: the registry registers bucketed factories that
            # import this module.
            from ..compressors.registry import create_compressor

            compressor = create_compressor(compressor)
        if isinstance(compressor, CompressionPipeline):
            raise ValueError("cannot nest CompressionPipeline inside itself")
        if element_bytes < 1:
            raise ValueError(f"element_bytes must be >= 1, got {element_bytes}")
        if bucket_bytes < element_bytes:
            raise ValueError(f"bucket_bytes ({bucket_bytes}) must hold at least one element")
        self.compressor = compressor
        self.bucket_bytes = int(bucket_bytes)
        self.element_bytes = int(element_bytes)
        self.flat_spec = flat_spec
        self.name = f"{compressor.name}-bucketed"

    def reset(self) -> None:
        self.compressor.reset()

    def layout_for(self, size: int) -> BucketLayout:
        """Bucket layout the pipeline uses for a ``size``-element gradient.

        Layer-aware when a matching :class:`~repro.tensor.flatten.FlatSpec`
        was provided; a size mismatch (e.g. the pipeline reused on a different
        tensor) falls back to the uniform fixed-size layout.
        """
        if self.flat_spec is not None and self.flat_spec.total_size == size:
            return BucketLayout.from_flat_spec(
                self.flat_spec, self.bucket_bytes, element_bytes=self.element_bytes
            )
        return BucketLayout.from_bytes(size, self.bucket_bytes, element_bytes=self.element_bytes)

    def compress(self, gradient: np.ndarray, ratio: float) -> CompressionResult:
        [result] = self.compress_group(self._validate(gradient, ratio)[None], ratio)
        return result

    def compress_group(self, gradients: np.ndarray, ratio: float, group=None) -> list[CompressionResult]:
        """:meth:`Compressor.compress_group` of pipelines: one ``fit_all_buckets`` fits all rows' buckets."""
        rows = np.asarray(gradients, dtype=np.float64)
        layout = self.layout_for(self._validate(rows[0], ratio).size)
        inners = [pipeline.compressor for pipeline in group or [self]]
        fits = fit_group(self.compressor, rows, layout, ratio, inners)
        return [self._result_from_fit(fit, layout) for fit in fits]

    def _result_from_fit(self, fit: BucketedFit, layout: BucketLayout) -> CompressionResult:
        """Package a batched :class:`BucketedFit` with per-bucket metadata.

        The summary threshold is the mean of the per-bucket thresholds that
        exist (``None``/``+inf`` entries mark buckets with no threshold-based
        selection).
        """
        bucket_nnz = np.asarray(fit.bucket_nnz, dtype=np.int64)
        sparse = SparseGradient(indices=fit.indices, values=fit.values, dense_size=layout.total_size)
        thresholds = np.asarray(fit.bucket_thresholds, dtype=np.float64)  # None reads as NaN
        have = thresholds[np.isfinite(thresholds)]
        return CompressionResult(
            sparse=sparse,
            target_ratio=fit.target_ratio,
            threshold=float(have.mean()) if have.size else None,
            ops=list(fit.ops),
            metadata=self._bucket_metadata(
                layout,
                bucket_nnz,
                inner=self.compressor.name,
                bucket_thresholds=fit.bucket_thresholds,
                **fit.metadata,
            ),
        )

    # -- shared ------------------------------------------------------------

    @staticmethod
    def _bucket_metadata(layout: BucketLayout, bucket_nnz: np.ndarray, **extra) -> dict:
        sizes, ready = _layout_lists(layout)
        meta = {
            "num_buckets": layout.num_buckets,
            "bucket_size": layout.bucket_size,
            "bucket_sizes": list(sizes),
            "bucket_ready_fractions": list(ready),
            "layer_aware": not layout.is_uniform,
            "bucket_nnz": bucket_nnz.tolist(),
            "bucket_payload_bytes": (bucket_nnz * (FLOAT_BYTES + INDEX_BYTES)).tolist(),
        }
        meta.update(extra)
        return meta


@functools.lru_cache(maxsize=64)
def _layout_lists(layout: BucketLayout) -> tuple[list[int], list[float]]:
    """A layout's bucket sizes and ready fractions as lists (copied into each result)."""
    return layout.sizes().tolist(), layout.ready_fractions().tolist()
