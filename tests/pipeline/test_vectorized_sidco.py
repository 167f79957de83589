"""The batched SIDCo pipeline against the per-bucket scalar reference loop."""

import numpy as np
import pytest

from repro.core.sidco import SIDCo
from repro.gradients import realistic_gradient
from repro.pipeline import BucketLayout, CompressionPipeline, estimate_multi_stage_bucketed

from .compressor_reference import ReferencePipeline
from .threshold_reference import estimate_multi_stage

VARIANTS = ["exponential", "gamma", "gpareto"]


def _pipelines(sid, bucket_bytes):
    return (
        CompressionPipeline(SIDCo(sid), bucket_bytes=bucket_bytes),
        ReferencePipeline(SIDCo(sid), bucket_bytes=bucket_bytes),
    )


@pytest.mark.parametrize("sid", VARIANTS)
class TestMatchesScalarLoop:
    def test_single_call_thresholds_and_selection_match(self, sid, medium_gradient):
        batched, loop = _pipelines(sid, 32 * 1024)
        rv = batched.compress(medium_gradient, 0.01)
        rl = loop.compress(medium_gradient, 0.01)
        tv = np.asarray(rv.metadata["bucket_thresholds"])
        tl = np.asarray(rl.metadata["bucket_thresholds"])
        np.testing.assert_allclose(tv, tl, rtol=1e-9)
        np.testing.assert_array_equal(rv.sparse.indices, rl.sparse.indices)
        np.testing.assert_array_equal(rv.metadata["bucket_stages_used"], rl.metadata["bucket_stages_used"])

    def test_steady_state_with_adaptive_stages_matches(self, sid, medium_gradient):
        # Both controllers see identical global observations, so they escalate
        # stages in lockstep and the batched fits must keep matching.
        batched, loop = _pipelines(sid, 32 * 1024)
        for _ in range(12):
            rv = batched.compress(medium_gradient, 0.001)
            rl = loop.compress(medium_gradient, 0.001)
        assert batched.compressor.num_stages == loop.compressor.num_stages
        np.testing.assert_allclose(
            np.asarray(rv.metadata["bucket_thresholds"]),
            np.asarray(rl.metadata["bucket_thresholds"]),
            rtol=1e-9,
        )
        np.testing.assert_array_equal(rv.sparse.indices, rl.sparse.indices)

    def test_ragged_last_bucket_matches(self, sid):
        gradient = realistic_gradient(100_003, seed=23)
        batched, loop = _pipelines(sid, 24_000)
        rv = batched.compress(gradient, 0.01)
        rl = loop.compress(gradient, 0.01)
        assert rv.metadata["num_buckets"] == rl.metadata["num_buckets"]
        np.testing.assert_allclose(
            np.asarray(rv.metadata["bucket_thresholds"]),
            np.asarray(rl.metadata["bucket_thresholds"]),
            rtol=1e-9,
        )
        np.testing.assert_array_equal(rv.sparse.indices, rl.sparse.indices)

    def test_tiny_tail_bucket_uses_single_stage_fallback(self, sid):
        # Last bucket has 7 (< MIN_STAGE_SAMPLE) elements: both paths fall back
        # to a single-stage fit on the raw target ratio for it.
        gradient = realistic_gradient(1024 * 3 + 7, seed=29)
        batched, loop = _pipelines(sid, 4096)
        rv = batched.compress(gradient, 0.05)
        rl = loop.compress(gradient, 0.05)
        np.testing.assert_allclose(
            np.asarray(rv.metadata["bucket_thresholds"]),
            np.asarray(rl.metadata["bucket_thresholds"]),
            rtol=1e-9,
        )
        np.testing.assert_array_equal(rv.sparse.indices, rl.sparse.indices)


class TestEstimatorDirect:
    def test_matches_per_bucket_scalar_estimates(self, medium_gradient):
        abs_flat = np.abs(medium_gradient)
        layout = BucketLayout(total_size=abs_flat.size, bucket_size=10_000)
        for sid, stages in [("exponential", 3), ("gamma", 2), ("gpareto", 2)]:
            batched = estimate_multi_stage_bucketed(
                abs_flat, layout, 0.005, sid, stages, first_stage_ratio=0.25
            )
            for i in range(layout.num_buckets):
                start, stop = layout.bounds(i)
                scalar = estimate_multi_stage(
                    abs_flat[start:stop], 0.005, sid, stages, first_stage_ratio=0.25
                )
                assert batched.thresholds[i] == pytest.approx(scalar.threshold, rel=1e-9)
                assert batched.stages_used[i] == scalar.stages_used

    def test_single_bucket_matches_unbucketed_estimator(self, medium_gradient):
        abs_flat = np.abs(medium_gradient)
        layout = BucketLayout(total_size=abs_flat.size, bucket_size=abs_flat.size)
        batched = estimate_multi_stage_bucketed(
            abs_flat, layout, 0.01, "exponential", 2, first_stage_ratio=0.25
        )
        scalar = estimate_multi_stage(abs_flat, 0.01, "exponential", 2, first_stage_ratio=0.25)
        assert batched.thresholds[0] == scalar.threshold

    def test_degenerate_bucket_gets_infinite_threshold(self):
        flat = np.abs(realistic_gradient(2048, seed=3))
        flat[:1024] = 0.0
        layout = BucketLayout(total_size=2048, bucket_size=1024)
        batched = estimate_multi_stage_bucketed(
            flat, layout, 0.05, "exponential", 1, first_stage_ratio=0.25
        )
        assert np.isinf(batched.thresholds[0])
        assert np.isfinite(batched.thresholds[1])

    def test_input_validation(self):
        flat = np.abs(realistic_gradient(128, seed=0))
        layout = BucketLayout(total_size=128, bucket_size=64)
        with pytest.raises(ValueError):
            estimate_multi_stage_bucketed(flat, layout, 0.0, "exponential", 1, first_stage_ratio=0.25)
        with pytest.raises(ValueError):
            estimate_multi_stage_bucketed(flat, layout, 0.1, "exponential", 0, first_stage_ratio=0.25)
        with pytest.raises(ValueError):
            estimate_multi_stage_bucketed(flat[:100], layout, 0.1, "exponential", 1, first_stage_ratio=0.25)

    def test_batched_ops_are_fused_not_per_bucket(self, medium_gradient):
        # One reduce per stage regardless of bucket count: the modelled trace
        # reflects the batched launches.
        abs_flat = np.abs(medium_gradient)
        layout = BucketLayout(total_size=abs_flat.size, bucket_size=10_000)
        batched = estimate_multi_stage_bucketed(
            abs_flat, layout, 0.1, "exponential", 1, first_stage_ratio=0.25
        )
        reduces = [op for op in batched.ops[0] if op.op == "reduce"]
        assert len(reduces) == 1
        assert reduces[0].size == abs_flat.size
