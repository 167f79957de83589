"""Bucketed compression pipeline.

:class:`CompressionPipeline` wraps any :class:`~repro.compressors.base.Compressor`
and applies it per fixed-size bucket of the flattened gradient (DDP-style),
merging the per-bucket sparse selections into one global
:class:`~repro.tensor.sparse.SparseGradient`.  Every result carries per-bucket
payload sizes in its metadata so the timeline model can price communication
bucket by bucket (the prerequisite for modelling compute/communication
overlap).

With ``vectorized=True`` (the default) the pipeline does not loop over
buckets at all: any compressor that implements
:meth:`~repro.compressors.base.Compressor.fit_all_buckets` — every registry
compressor does — fits *all* buckets in one batched NumPy pass and the
pipeline packages the returned :class:`~repro.compressors.base.BucketedFit`.
For SIDCo that batched pass is
:func:`~repro.pipeline.vectorized.estimate_multi_stage_bucketed`, sharing the
wrapped instance's stage controller, which observes the global achieved
selection once per call exactly like the unbucketed compressor.  Passing
``vectorized=False`` keeps identical selection semantics but runs the scalar
per-bucket loop — the reference every batched path is tested against
bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from ..compressors.base import BucketedFit, Compressor, CompressionResult, OpRecord
from ..core.sidco import SIDCo
from ..core.threshold import estimate_multi_stage
from ..tensor.flatten import FlatSpec
from ..tensor.sparse import FLOAT_BYTES, INDEX_BYTES, SparseGradient
from .bucketing import DEFAULT_BUCKET_BYTES, BucketLayout, merge_sparse_buckets, split_into_buckets


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
    vectorized:
        Use the batched all-buckets-at-once ``fit_all_buckets`` fast path for
        any compressor that provides one (every registry compressor does);
        compressors without it — or declining a particular input — fall back
        to the scalar per-bucket loop.
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
        vectorized: bool = True,
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
        self.vectorized = bool(vectorized)
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
        arr = self._validate(gradient, ratio)
        layout = self.layout_for(arr.size)
        if isinstance(self.compressor, SIDCo):
            return self._compress_sidco(arr, ratio, layout)
        if self.vectorized:
            fit = self.compressor.fit_all_buckets(arr, layout, ratio)
            if fit is not None:
                return self._result_from_fit(fit, layout)
        return self._compress_generic(arr, ratio, layout)

    # -- SIDCo ------------------------------------------------------------

    def _compress_sidco(self, arr: np.ndarray, ratio: float, layout: BucketLayout) -> CompressionResult:
        inner: SIDCo = self.compressor
        if self.vectorized:
            fit = inner.fit_all_buckets(arr, layout, ratio)
        else:
            fit = self._fit_sidco_loop(arr, ratio, layout)
        if fit is None:
            # No tail to fit anywhere; let the wrapped compressor's degenerate
            # handling pick the selection, but keep the pipeline's metadata
            # contract (per-bucket payloads) intact for the timeline model.
            result = inner.compress(arr, ratio)
            bucket_nnz = np.bincount(
                layout.bucket_of(result.sparse.indices), minlength=layout.num_buckets
            ).astype(np.int64)
            result.metadata.update(self._bucket_metadata(layout, bucket_nnz, degenerate=True))
            return result
        result = self._result_from_fit(fit, layout)
        inner.controller.observe(result.achieved_k, self._target_k(arr.size, ratio))
        return result

    def _fit_sidco_loop(self, arr: np.ndarray, ratio: float, layout: BucketLayout) -> BucketedFit | None:
        """The scalar reference: :func:`estimate_multi_stage` bucket by bucket."""
        inner: SIDCo = self.compressor
        d = arr.size
        abs_flat = np.abs(arr)
        max_abs = float(abs_flat.max())
        if not np.isfinite(max_abs):
            raise ValueError("gradient contains NaN or infinite values")
        if d < 2 or max_abs == 0.0:
            return None

        ops: list[OpRecord] = [OpRecord("elementwise", d)]
        num_stages = inner.controller.num_stages
        thresholds = np.empty(layout.num_buckets)
        stages_used = np.empty(layout.num_buckets, dtype=np.int64)
        for i in range(layout.num_buckets):
            start, stop = layout.bounds(i)
            try:
                est = estimate_multi_stage(
                    abs_flat[start:stop],
                    ratio,
                    inner.sid,
                    num_stages,
                    first_stage_ratio=inner.first_stage_ratio,
                )
                thresholds[i] = est.threshold
                stages_used[i] = est.stages_used
                ops.extend(est.ops)
            except ValueError:
                # Degenerate bucket (e.g. all-zero): select nothing, like
                # the vectorized path.
                thresholds[i] = np.inf
                stages_used[i] = 0

        indices = np.flatnonzero(abs_flat >= np.repeat(thresholds, layout.sizes()))
        ops.append(OpRecord("elementwise", d))
        ops.append(OpRecord("compact", d, indices.size))
        return BucketedFit(
            indices=indices,
            values=arr[indices],
            bucket_nnz=np.bincount(layout.bucket_of(indices), minlength=layout.num_buckets),
            bucket_thresholds=thresholds,
            target_ratio=ratio,
            ops=ops,
            metadata={
                "sid": inner.sid,
                "num_stages_configured": num_stages,
                "stages_used": int(stages_used.max()),
                "bucket_stages_used": stages_used,
            },
        )

    # -- generic per-bucket loop -------------------------------------------

    def _compress_generic(self, arr: np.ndarray, ratio: float, layout: BucketLayout) -> CompressionResult:
        results = [
            self.compressor.compress(view, ratio) for view in split_into_buckets(arr, layout)
        ]
        sparse = merge_sparse_buckets([r.sparse for r in results], layout)
        ops = [op for r in results for op in r.ops]
        bucket_nnz = np.asarray([r.sparse.nnz for r in results], dtype=np.int64)
        bucket_thresholds = [r.threshold for r in results]
        have_thresholds = [t for t in bucket_thresholds if t is not None]
        return CompressionResult(
            sparse=sparse,
            # All buckets see the same requested ratio, so they agree on the
            # effective target (NoCompression normalises it to 1.0).
            target_ratio=results[0].target_ratio,
            threshold=float(np.mean(have_thresholds)) if have_thresholds else None,
            ops=ops,
            metadata=self._bucket_metadata(
                layout,
                bucket_nnz,
                inner=self.compressor.name,
                bucket_thresholds=bucket_thresholds,
            ),
        )

    # -- batched fast path --------------------------------------------------

    def _result_from_fit(self, fit: BucketedFit, layout: BucketLayout) -> CompressionResult:
        """Package a batched :class:`BucketedFit` exactly like the scalar merge.

        The summary threshold is the mean of the per-bucket thresholds that
        exist (``None``/``+inf`` entries mark buckets with no threshold-based
        selection), matching both the generic per-bucket merge and the SIDCo
        fast path.
        """
        bucket_nnz = np.asarray(fit.bucket_nnz, dtype=np.int64)
        sparse = SparseGradient(indices=fit.indices, values=fit.values, dense_size=layout.total_size)
        have = [t for t in fit.bucket_thresholds if t is not None and np.isfinite(t)]
        return CompressionResult(
            sparse=sparse,
            target_ratio=fit.target_ratio,
            threshold=float(np.mean(have)) if have else None,
            ops=list(fit.ops),
            metadata=self._bucket_metadata(
                layout,
                bucket_nnz,
                inner=self.compressor.name,
                vectorized=self.vectorized,
                bucket_thresholds=fit.bucket_thresholds,
                **fit.metadata,
            ),
        )

    # -- shared ------------------------------------------------------------

    @staticmethod
    def _bucket_metadata(layout: BucketLayout, bucket_nnz: np.ndarray, **extra) -> dict:
        payload = (bucket_nnz * (FLOAT_BYTES + INDEX_BYTES)).tolist()
        meta = {
            "num_buckets": layout.num_buckets,
            "bucket_size": layout.bucket_size,
            "bucket_sizes": layout.sizes().tolist(),
            "bucket_ready_fractions": layout.ready_fractions().tolist(),
            "layer_aware": not layout.is_uniform,
            "bucket_nnz": bucket_nnz.tolist(),
            "bucket_payload_bytes": payload,
        }
        meta.update(extra)
        return meta
