"""CompressionPipeline behaviour: wrapping, merging, metadata, invariances."""

import numpy as np
import pytest

from repro.compressors import SIDCO_VARIANTS, available_compressors, create_compressor
from repro.compressors.topk import NoCompression, TopK
from repro.pipeline import CompressionPipeline
from repro.tensor.sparse import FLOAT_BYTES, INDEX_BYTES

from .compressor_reference import ReferencePipeline


class TestConstruction:
    def test_accepts_registry_name(self):
        pipeline = CompressionPipeline("topk", bucket_bytes=1024)
        assert isinstance(pipeline.compressor, TopK)
        assert pipeline.name == "topk-bucketed"

    @pytest.mark.parametrize("variant", SIDCO_VARIANTS)
    def test_bucketed_sidco_is_labelled_bucketed(self, variant):
        built = CompressionPipeline(create_compressor(variant), bucket_bytes=2048)
        assert built.name == f"{variant}-bucketed"
        assert built.name not in available_compressors()

    def test_rejects_nesting_and_bad_budget(self):
        with pytest.raises(ValueError):
            CompressionPipeline(CompressionPipeline("topk"))
        with pytest.raises(ValueError):
            CompressionPipeline("topk", bucket_bytes=2, element_bytes=4)



class TestGenericBucketing:
    def test_no_compression_is_bucketing_invariant(self, small_gradient):
        unbucketed = NoCompression().compress(small_gradient, 1.0)
        bucketed = CompressionPipeline(NoCompression(), bucket_bytes=4096).compress(small_gradient, 1.0)
        assert bucketed.metadata["num_buckets"] > 1
        np.testing.assert_array_equal(bucketed.sparse.indices, unbucketed.sparse.indices)
        np.testing.assert_array_equal(bucketed.sparse.values, unbucketed.sparse.values)
        assert bucketed.target_ratio == unbucketed.target_ratio == 1.0

    def test_topk_selects_k_per_bucket(self, small_gradient):
        ratio = 0.05
        pipeline = CompressionPipeline(TopK(), bucket_bytes=4000)
        result = pipeline.compress(small_gradient, ratio)
        layout = pipeline.layout_for(small_gradient.size)
        per_bucket_k = [max(1, int(round(ratio * s))) for s in layout.sizes()]
        assert result.metadata["bucket_nnz"] == per_bucket_k
        assert result.achieved_k == sum(per_bucket_k)
        # Values always come from the original vector at the merged indices.
        np.testing.assert_allclose(result.sparse.values, small_gradient[result.sparse.indices])

    def test_bucket_payload_metadata_consistent(self, small_gradient):
        result = CompressionPipeline(TopK(), bucket_bytes=4000).compress(small_gradient, 0.05)
        nnz = result.metadata["bucket_nnz"]
        payload = result.metadata["bucket_payload_bytes"]
        assert payload == [n * (FLOAT_BYTES + INDEX_BYTES) for n in nnz]
        assert sum(nnz) == result.sparse.nnz
        assert sum(payload) == result.sparse.payload_bytes()

    def test_scalar_loop_ops_concatenate_per_bucket_traces(self, small_gradient):
        single = TopK().compress(small_gradient, 0.05)
        bucketed = ReferencePipeline(TopK(), bucket_bytes=4000).compress(small_gradient, 0.05)
        num_buckets = bucketed.metadata["num_buckets"]
        assert len(bucketed.ops) == num_buckets * len(single.ops)

    def test_vectorized_ops_are_fused_across_buckets(self, small_gradient):
        # The batched path launches each primitive once over the whole vector
        # rather than once per bucket: a constant-length trace whose sizes
        # still cover every element.
        single = TopK().compress(small_gradient, 0.05)
        fused = CompressionPipeline(TopK(), bucket_bytes=4000).compress(small_gradient, 0.05)
        assert fused.metadata["num_buckets"] > 1
        assert len(fused.ops) == len(single.ops)
        assert {op.op for op in fused.ops} == {op.op for op in single.ops}
        assert all(op.size == small_gradient.size for op in fused.ops)


class TestSIDCoBucketing:
    def test_achieved_ratio_within_controller_band(self, medium_gradient):
        target = 0.01
        pipeline = CompressionPipeline(create_compressor("sidco-e"), bucket_bytes=32 * 1024)
        result = None
        for _ in range(15):
            result = pipeline.compress(medium_gradient, target)
        tolerance = pipeline.compressor.controller.config.error_tolerance
        # Steady state: the global achieved ratio sits inside the stage
        # controller's tolerance band around the target, like unbucketed SIDCo.
        assert abs(result.achieved_ratio / target - 1.0) <= tolerance + 0.05

    def test_controller_observes_globally_once_per_call(self, medium_gradient):
        pipeline = CompressionPipeline(create_compressor("sidco-e"), bucket_bytes=32 * 1024)
        interval = pipeline.compressor.controller.config.adaptation_interval
        controller = pipeline.compressor.controller
        for _ in range(interval - 1):
            pipeline.compress(medium_gradient, 0.001)
        assert controller.num_stages == 1
        # One observation per compress call -> exactly one adaptation decision,
        # on the interval-th call (the first calls overshoot the target).
        pipeline.compress(medium_gradient, 0.001)
        assert controller.num_stages == 2

    def test_all_zero_gradient_degrades_gracefully(self):
        pipeline = CompressionPipeline(create_compressor("sidco-e"), bucket_bytes=1024)
        result = pipeline.compress(np.zeros(5000), 0.01)
        assert result.achieved_k == max(1, round(0.01 * 5000))
        assert np.all(np.isfinite(result.sparse.values))
        # The degenerate fallback still honours the bucket-metadata contract.
        assert result.metadata["num_buckets"] == pipeline.layout_for(5000).num_buckets
        assert sum(result.metadata["bucket_nnz"]) == result.achieved_k
        assert sum(result.metadata["bucket_payload_bytes"]) == result.sparse.payload_bytes()

    def test_single_element_gradient_keeps_the_element(self):
        for variant in SIDCO_VARIANTS:
            result = CompressionPipeline(create_compressor(variant)).compress(np.array([0.5]), 0.5)
            assert result.achieved_k == 1
            assert result.metadata["num_buckets"] == 1

    def test_zero_bucket_inside_nonzero_gradient_selects_nothing_there(self, rng):
        flat = rng.laplace(size=4096)
        flat[1024:2048] = 0.0
        pipeline = CompressionPipeline(create_compressor("sidco-e"), bucket_bytes=1024 * FLOAT_BYTES)
        result = pipeline.compress(flat, 0.05)
        assert result.metadata["bucket_nnz"][1] == 0
        assert result.achieved_k > 0

    def test_threshold_is_mean_of_finite_bucket_thresholds(self, medium_gradient):
        result = CompressionPipeline(create_compressor("sidco-e"), bucket_bytes=64 * 1024).compress(
            medium_gradient, 0.01
        )
        thresholds = np.asarray(result.metadata["bucket_thresholds"])
        finite = thresholds[np.isfinite(thresholds)]
        assert result.threshold == pytest.approx(float(finite.mean()))
