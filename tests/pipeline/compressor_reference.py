"""The scalar compressors and the per-bucket pipeline loop: a test oracle.

Every baseline compressor's ``compress`` is now the one-bucket case of its
``fit_all_buckets``, and :class:`~repro.pipeline.CompressionPipeline` always
fits all buckets in one call.  The functions below are the scalar
implementations those replaced, kept statement for statement so the batched
fits can be held bit-for-bit equal to them:

* one ``*_compress`` body per compressor, SIDCo's included, taking the
  compressor instance as ``self`` (:func:`reference_compress` picks the right
  one), with the threshold/top-k result helpers they shared;
* the pipeline's per-bucket loop (:func:`reference_pipeline_compress`): the
  generic loop calls :func:`reference_compress` on every bucket view, and
  SIDCo runs the scalar :func:`~.threshold_reference.estimate_multi_stage`
  bucket by bucket (``_fit_sidco_loop``).  Both take the pipeline as
  ``self``; :class:`ReferencePipeline` is a pipeline whose ``compress`` is
  that loop.

The pipeline's bucket-metadata helper is shared with the library, which keeps
it unchanged.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp

from repro.compressors.base import BucketedFit, CompressionResult, OpRecord
from repro.compressors.dgc import DGC
from repro.compressors.gaussiank import GaussianKSGD
from repro.compressors.randomk import RandomK
from repro.compressors.redsync import RedSync
from repro.compressors.threshold_fixed import AdaptiveHardThreshold
from repro.compressors.topk import NoCompression, TopK
from repro.core.sidco import SIDCo
from repro.pipeline import CompressionPipeline
from repro.pipeline.bucketing import BucketLayout, merge_sparse_buckets, split_into_buckets
from repro.tensor.sparse import SparseGradient

from .threshold_reference import estimate_multi_stage

# -- the result helpers --------------------------------------------------------


def _result_from_threshold(
    gradient: np.ndarray,
    threshold: float,
    ratio: float,
    ops: list[OpRecord],
    metadata: dict | None = None,
) -> CompressionResult:
    """Select all elements with ``|g| >= threshold`` and package the result."""
    mask = np.abs(gradient) >= threshold
    ops.append(OpRecord("elementwise", gradient.size))
    ops.append(OpRecord("compact", gradient.size, int(mask.sum())))
    sparse = SparseGradient.from_mask(gradient, mask)
    return CompressionResult(
        sparse=sparse,
        target_ratio=ratio,
        threshold=float(threshold),
        ops=ops,
        metadata=metadata or {},
    )


def _result_from_topk(
    gradient: np.ndarray,
    k: int,
    ratio: float,
    ops: list[OpRecord],
    metadata: dict | None = None,
) -> CompressionResult:
    """Keep exactly the ``k`` largest-magnitude elements."""
    magnitudes = np.abs(gradient)
    ops.append(OpRecord("elementwise", gradient.size))
    if k >= gradient.size:
        indices = np.arange(gradient.size)
    else:
        indices = np.argpartition(magnitudes, gradient.size - k)[gradient.size - k :]
    ops.append(OpRecord("topk_select", gradient.size, k))
    sparse = SparseGradient(indices=indices, values=gradient[indices], dense_size=gradient.size)
    threshold = float(np.abs(gradient[indices]).min()) if indices.size else 0.0
    return CompressionResult(
        sparse=sparse,
        target_ratio=ratio,
        threshold=threshold,
        ops=ops,
        metadata=metadata or {},
    )


# -- the scalar compressors ----------------------------------------------------


def _sidco_compress(self, gradient: np.ndarray, ratio: float) -> CompressionResult:
    arr = self._validate(gradient, ratio)
    d = arr.size
    target_k = self._target_k(d, ratio)

    abs_grad = np.abs(arr)
    max_abs = float(abs_grad.max())
    if not np.isfinite(max_abs):
        raise ValueError("gradient contains NaN or infinite values")
    if d < 2 or max_abs == 0.0:
        # Degenerate input (single element, or no tail at all): there is
        # nothing to fit, so fall back to an exact-k selection instead of
        # handing the SID fitters an empty/ill-posed sample.
        result = _result_from_topk(
            arr,
            target_k,
            ratio,
            ops=[OpRecord("elementwise", d)],
            metadata={"sid": self.sid, "degenerate": True},
        )
        self.controller.observe(result.achieved_k, target_k)
        return result

    estimate = estimate_multi_stage(
        abs_grad,
        ratio,
        self.sid,
        self.controller.num_stages,
        first_stage_ratio=self.first_stage_ratio,
    )
    result = _result_from_threshold(
        arr,
        estimate.threshold,
        ratio,
        [OpRecord("elementwise", d), *estimate.ops],
        metadata={
            "sid": self.sid,
            "stages_used": estimate.stages_used,
            "stage_thresholds": estimate.stage_thresholds,
            "stage_ratios": estimate.stage_ratios,
            "num_stages_configured": self.controller.num_stages,
        },
    )
    self.controller.observe(result.achieved_k, target_k)
    return result


def _topk_compress(self, gradient: np.ndarray, ratio: float) -> CompressionResult:
    arr = self._validate(gradient, ratio)
    k = self._target_k(arr.size, ratio)
    return _result_from_topk(arr, k, ratio, ops=[], metadata={"exact": True})


def _none_compress(self, gradient: np.ndarray, ratio: float = 1.0) -> CompressionResult:
    arr = np.asarray(gradient, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("cannot compress an empty gradient")

    sparse = SparseGradient(indices=np.arange(arr.size), values=arr, dense_size=arr.size)
    return CompressionResult(
        sparse=sparse,
        target_ratio=1.0,
        threshold=None,
        ops=[OpRecord("elementwise", 0)],
        metadata={"dense": True},
    )


def _randomk_compress(self, gradient: np.ndarray, ratio: float) -> CompressionResult:
    arr = self._validate(gradient, ratio)
    d = arr.size
    k = self._target_k(d, ratio)
    indices = self._rng.choice(d, size=k, replace=False)
    values = arr[indices]
    if self.rescale:
        values = values * (d / k)
    ops = [OpRecord("random_sample", d, k), OpRecord("compact", k, k)]
    sparse = SparseGradient(indices=indices, values=values, dense_size=d)
    return CompressionResult(
        sparse=sparse,
        target_ratio=ratio,
        threshold=None,
        ops=ops,
        metadata={"rescaled": self.rescale},
    )


def _dgc_compress(self, gradient: np.ndarray, ratio: float) -> CompressionResult:
    arr = self._validate(gradient, ratio)
    d = arr.size
    k = self._target_k(d, ratio)
    ops: list[OpRecord] = []

    # Stage 1: random sample and Top-k on the sample to get a threshold.
    sample_size = max(k, int(np.ceil(self.sample_ratio * d)))
    sample_size = min(sample_size, d)
    sample_idx = self._rng.choice(d, size=sample_size, replace=False)
    ops.append(OpRecord("random_sample", d, sample_size))
    sample_mags = np.abs(arr[sample_idx])
    ops.append(OpRecord("elementwise", sample_size))
    sample_k = max(1, int(round(ratio * sample_size)))
    if sample_k >= sample_size:
        threshold = float(sample_mags.min())
    else:
        part = np.partition(sample_mags, sample_size - sample_k)
        threshold = float(part[sample_size - sample_k])
    ops.append(OpRecord("topk_select", sample_size, sample_k))

    # Stage 2: threshold the full vector.
    mags = np.abs(arr)
    ops.append(OpRecord("elementwise", d))
    mask = mags >= threshold
    selected = int(mask.sum())
    ops.append(OpRecord("compact", d, selected))

    if selected > self.overshoot_trim * k:
        # Worst case: trim the selection back to exactly k with a second Top-k.
        sel_idx = np.flatnonzero(mask)
        sel_mags = mags[sel_idx]
        keep = np.argpartition(sel_mags, sel_idx.size - k)[sel_idx.size - k :]
        ops.append(OpRecord("topk_select", sel_idx.size, k))
        final_idx = sel_idx[keep]
        threshold = float(sel_mags[keep].min())
    else:
        final_idx = np.flatnonzero(mask)

    sparse = SparseGradient(indices=final_idx, values=arr[final_idx], dense_size=d)
    return CompressionResult(
        sparse=sparse,
        target_ratio=ratio,
        threshold=threshold,
        ops=ops,
        metadata={"sample_size": sample_size, "trimmed": selected > self.overshoot_trim * k},
    )


def _redsync_compress(self, gradient: np.ndarray, ratio: float) -> CompressionResult:
    arr = self._validate(gradient, ratio)
    d = arr.size
    k = self._target_k(d, ratio)
    ops: list[OpRecord] = []

    mags = np.abs(arr)
    ops.append(OpRecord("elementwise", d))
    mean = float(mags.mean())
    maximum = float(mags.max())
    ops.append(OpRecord("reduce", d))
    ops.append(OpRecord("reduce", d))

    if maximum <= mean or maximum == 0.0:
        # Degenerate vector (constant magnitudes): keep everything above the mean.
        return _result_from_threshold(arr, mean, ratio, ops, {"iterations": 0})

    # Interpolate between max and mean: threshold = mean + alpha * (max - mean),
    # starting close to the max and lowering alpha until >= k elements pass.
    alpha = 1.0
    threshold = maximum
    iterations = 0
    selected = 1
    for iterations in range(1, self.max_search_iters + 1):
        alpha *= self.shrink_factor
        threshold = mean + alpha * (maximum - mean)
        selected = int(np.count_nonzero(mags >= threshold))
        ops.append(OpRecord("elementwise", d))
        ops.append(OpRecord("reduce", d))
        if selected >= k:
            break

    return _result_from_threshold(
        arr, threshold, ratio, ops, {"iterations": iterations, "selected_at_stop": selected}
    )


def _gaussiank_compress(self, gradient: np.ndarray, ratio: float) -> CompressionResult:
    arr = self._validate(gradient, ratio)
    d = arr.size
    k = self._target_k(d, ratio)
    ops: list[OpRecord] = []

    mean = float(arr.mean())
    std = float(arr.std())
    ops.append(OpRecord("reduce", d))
    ops.append(OpRecord("reduce", d))
    if std == 0.0:
        return _result_from_threshold(arr, abs(mean), ratio, ops, {"iterations": 0})

    # P(|G - mu| >= eta) = delta under a Gaussian model ->
    # eta = std * sqrt(2) * erfinv(1 - delta).
    threshold = float(std * np.sqrt(2.0) * _sp.erfinv(1.0 - ratio))

    mags = np.abs(arr - mean)
    ops.append(OpRecord("elementwise", d))

    iterations = 0
    for iterations in range(1, self.max_adjust_iters + 1):
        selected = int(np.count_nonzero(mags >= threshold))
        ops.append(OpRecord("elementwise", d))
        ops.append(OpRecord("reduce", d))
        if selected > (1.0 + self.tolerance) * k:
            threshold *= 1.0 + self.step
        elif selected < (1.0 - self.tolerance) * k:
            threshold *= 1.0 - self.step
        else:
            break

    # Selection is done on |g| (not |g - mean|) as in the published scheme;
    # gradients are near-zero mean so the two coincide in practice.
    return _result_from_threshold(arr, threshold, ratio, ops, {"iterations": iterations})


def _hard_threshold_compress(self, gradient: np.ndarray, ratio: float) -> CompressionResult:
    arr = self._validate(gradient, ratio)
    d = arr.size
    ops: list[OpRecord] = []

    mags = np.abs(arr)
    ops.append(OpRecord("elementwise", d))
    mean = float(mags.mean())
    ops.append(OpRecord("reduce", d))

    if self._scale is None:
        # Bootstrap from the exponential-model quantile so the first call
        # is already in the right ballpark.
        self._scale = float(np.log(1.0 / ratio))
    threshold = mean * self._scale

    result = _result_from_threshold(arr, threshold, ratio, ops, {"scale": self._scale})

    # Multiplicative correction for the next call.
    achieved = max(result.achieved_ratio, 1.0 / d)
    corrective = self._scale * (np.log(1.0 / ratio) / max(np.log(1.0 / achieved), 1e-12))
    self._scale = float((1.0 - self.adjustment_rate) * self._scale + self.adjustment_rate * corrective)
    return result


_SCALAR_COMPRESS = {
    TopK: _topk_compress,
    NoCompression: _none_compress,
    RandomK: _randomk_compress,
    DGC: _dgc_compress,
    RedSync: _redsync_compress,
    GaussianKSGD: _gaussiank_compress,
    AdaptiveHardThreshold: _hard_threshold_compress,
}

#: The compressor classes with a scalar reference body.
SCALAR_CLASSES = tuple(_SCALAR_COMPRESS)


def reference_compress(compressor, gradient: np.ndarray, ratio: float) -> CompressionResult:
    """The scalar ``compress`` of ``compressor``'s class."""
    if isinstance(compressor, SIDCo):
        return _sidco_compress(compressor, gradient, ratio)
    return _SCALAR_COMPRESS[type(compressor)](compressor, gradient, ratio)


# -- the per-bucket pipeline loop ----------------------------------------------


def reference_pipeline_compress(self, gradient: np.ndarray, ratio: float) -> CompressionResult:
    """The pipeline's per-bucket loop; ``self`` is a ``CompressionPipeline``."""
    arr = self._validate(gradient, ratio)
    layout = self.layout_for(arr.size)
    if isinstance(self.compressor, SIDCo):
        return _compress_sidco(self, arr, ratio, layout)
    return _compress_generic(self, arr, ratio, layout)


class ReferencePipeline(CompressionPipeline):
    """A :class:`CompressionPipeline` that runs the per-bucket reference loop."""

    compress = reference_pipeline_compress


def _compress_sidco(self, arr: np.ndarray, ratio: float, layout: BucketLayout) -> CompressionResult:
    inner: SIDCo = self.compressor
    fit = _fit_sidco_loop(self, arr, ratio, layout)
    if fit is None:
        # No tail to fit anywhere; let the wrapped compressor's degenerate
        # handling pick the selection, but keep the pipeline's metadata
        # contract (per-bucket payloads) intact for the timeline model.
        result = _sidco_compress(inner, arr, ratio)
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


def _compress_generic(self, arr: np.ndarray, ratio: float, layout: BucketLayout) -> CompressionResult:
    results = [
        reference_compress(self.compressor, view, ratio) for view in split_into_buckets(arr, layout)
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
