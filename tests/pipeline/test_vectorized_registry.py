"""Registry-wide batched fitting (``fit_all_buckets``) against the scalar loop.

Every registry compressor's bucketed pipeline must reproduce the per-bucket
scalar reference loop (``compressor_reference.py``) bit-for-bit: same indices,
same values, same per-bucket thresholds and counts, and the same evolution of
cross-call adaptive state (RNG streams, adaptive threshold scales, SIDCo stage
controllers).  The only tolerated divergence is argpartition tie-breaking on
exactly-equal magnitudes, which the realistic float gradients used here make
measure-zero.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors import (
    SIDCO_VARIANTS,
    BucketedFit,
    Compressor,
    available_compressors,
    create_compressor,
)
from repro.gradients import realistic_gradient
from repro.pipeline import CompressionPipeline

from .compressor_reference import ReferencePipeline

NAMES = available_compressors()


def _twin_pipelines(name: str, bucket_bytes: int = 4000) -> tuple[CompressionPipeline, ReferencePipeline]:
    """The batched pipeline and the reference loop over seed-twin compressors."""
    return (
        CompressionPipeline(create_compressor(name), bucket_bytes=bucket_bytes),
        ReferencePipeline(create_compressor(name), bucket_bytes=bucket_bytes),
    )


def _thresholds_array(meta: dict) -> np.ndarray:
    raw = meta["bucket_thresholds"]
    return np.asarray([np.nan if t is None else float(t) for t in raw], dtype=np.float64)


def _assert_results_match(rv, rl, *, threshold_rtol: float = 0.0):
    """Selections are always bit-for-bit; thresholds too, except for SIDCo.

    SIDCo's batched estimator reassociates the stage-tail reductions (one
    fused pass over all buckets), so its thresholds match the scalar loop to
    ``rtol=1e-9`` rather than exactly — the documented tolerance from the
    PR-1 fast path.  Every other compressor replays the scalar float ops in
    order and must be exact.
    """
    np.testing.assert_array_equal(rv.sparse.indices, rl.sparse.indices)
    np.testing.assert_array_equal(rv.sparse.values, rl.sparse.values)
    assert rv.sparse.dense_size == rl.sparse.dense_size
    assert rv.target_ratio == rl.target_ratio
    assert rv.metadata["bucket_nnz"] == rl.metadata["bucket_nnz"]
    if "bucket_thresholds" in rv.metadata and "bucket_thresholds" in rl.metadata:
        tv, tl = _thresholds_array(rv.metadata), _thresholds_array(rl.metadata)
        if threshold_rtol:
            np.testing.assert_allclose(tv, tl, rtol=threshold_rtol)
        else:
            np.testing.assert_array_equal(tv, tl)
    if rl.threshold is None:
        assert rv.threshold is None
    else:
        np.testing.assert_allclose(rv.threshold, rl.threshold, rtol=max(threshold_rtol, 1e-12))


def _rtol_for(name: str) -> float:
    return 1e-9 if name.startswith("sidco") else 0.0


@pytest.mark.parametrize("name", NAMES)
class TestMatchesScalarLoopRegistryWide:
    def test_single_call_matches_bit_for_bit(self, name, small_gradient):
        batched, loop = _twin_pipelines(name)
        rv = batched.compress(small_gradient, 0.02)
        rl = loop.compress(small_gradient, 0.02)
        assert rv.metadata["num_buckets"] > 1
        _assert_results_match(rv, rl, threshold_rtol=_rtol_for(name))

    def test_adaptive_state_stays_aligned_across_calls(self, name):
        # Stateful compressors (RNG streams, adaptive scales, stage
        # controllers) must evolve identically under both paths, so every
        # call in a sequence of distinct gradients keeps matching.
        batched, loop = _twin_pipelines(name)
        for call in range(4):
            gradient = realistic_gradient(12_288, seed=100 + call)
            rv = batched.compress(gradient, 0.01)
            rl = loop.compress(gradient, 0.01)
            _assert_results_match(rv, rl, threshold_rtol=_rtol_for(name))

    def test_ragged_tail_bucket_matches(self, name):
        # 20 full buckets of 1000 plus a 37-element tail.
        gradient = realistic_gradient(20_037, seed=17)
        batched, loop = _twin_pipelines(name)
        rv = batched.compress(gradient, 0.02)
        rl = loop.compress(gradient, 0.02)
        assert rv.metadata["bucket_sizes"][-1] == 37
        _assert_results_match(rv, rl, threshold_rtol=_rtol_for(name))

    def test_full_ratio_matches(self, name, small_gradient):
        if name.startswith("sidco"):
            pytest.skip("SIDCo's SID fit rejects delta=1.0 by contract")
        batched, loop = _twin_pipelines(name)
        _assert_results_match(
            batched.compress(small_gradient, 1.0),
            loop.compress(small_gradient, 1.0),
            threshold_rtol=_rtol_for(name),
        )


class TestAdaptiveStateEquality:
    def test_hard_threshold_scale_identical_after_calls(self, small_gradient):
        batched, loop = _twin_pipelines("hard_threshold")
        for _ in range(5):
            batched.compress(small_gradient, 0.01)
            loop.compress(small_gradient, 0.01)
        # The batched path replays the sequential per-bucket scale recurrence
        # exactly, so the internal state is bit-identical, not just close.
        assert batched.compressor._scale == loop.compressor._scale

    @pytest.mark.parametrize("name", ["dgc", "randomk"])
    def test_rng_stream_identical_after_calls(self, name, small_gradient):
        batched, loop = _twin_pipelines(name)
        for _ in range(3):
            batched.compress(small_gradient, 0.02)
            loop.compress(small_gradient, 0.02)
        # Both generators must sit at the same point of the same stream.
        assert (
            batched.compressor._rng.bit_generator.state
            == loop.compressor._rng.bit_generator.state
        )


class TestBucketedSIDCo:
    @pytest.mark.parametrize("variant", SIDCO_VARIANTS)
    def test_bucketed_sidco_matches_its_scalar_loop(self, variant, medium_gradient):
        rv, rl = (
            pipeline.compress(medium_gradient, 0.01) for pipeline in _twin_pipelines(variant, 32 * 1024)
        )
        np.testing.assert_array_equal(rv.sparse.indices, rl.sparse.indices)
        np.testing.assert_array_equal(rv.sparse.values, rl.sparse.values)
        assert rv.metadata["bucket_nnz"] == rl.metadata["bucket_nnz"]


class TestFitContract:
    def test_compressor_without_a_fit_cannot_compress(self, small_gradient):
        class Opaque(Compressor):
            name = "opaque"

        # compress is the one-bucket fit, and the pipeline has no other path.
        with pytest.raises(NotImplementedError, match="Opaque"):
            Opaque().compress(small_gradient, 0.02)
        with pytest.raises(NotImplementedError, match="Opaque"):
            CompressionPipeline(Opaque(), bucket_bytes=4000).compress(small_gradient, 0.02)

    @pytest.mark.parametrize("name", [n for n in NAMES if not n.startswith("sidco")])
    def test_compress_carries_no_bucket_metadata(self, name, small_gradient):
        # TimelineModel prices per bucket when bucket_payload_bytes is present.
        result = create_compressor(name).compress(small_gradient, 0.02)
        assert not any(key.startswith("bucket_") for key in result.metadata)

    @pytest.mark.parametrize("name", [n for n in NAMES if not n.startswith("sidco")])
    def test_fit_is_bucket_major_and_consistent(self, name, small_gradient):
        pipeline = CompressionPipeline(create_compressor(name), bucket_bytes=4000)
        layout = pipeline.layout_for(small_gradient.size)
        fit = pipeline.compressor.fit_all_buckets(small_gradient, layout, 0.02)
        assert isinstance(fit, BucketedFit)
        nnz = np.asarray(fit.bucket_nnz, dtype=np.int64)
        assert nnz.size == layout.num_buckets
        assert int(nnz.sum()) == fit.indices.size == fit.values.size
        assert len(list(fit.bucket_thresholds)) == layout.num_buckets
        # Indices are bucket-major: each bucket's block stays inside its bounds.
        offset = 0
        for i in range(layout.num_buckets):
            start, stop = layout.bounds(i)
            block = fit.indices[offset : offset + int(nnz[i])]
            assert block.size == int(nnz[i])
            if block.size:
                assert block.min() >= start and block.max() < stop
            offset += int(nnz[i])


class TestPropertyBasedEquivalence:
    @given(
        name=st.sampled_from([n for n in NAMES if n != "none"]),
        size=st.integers(min_value=64, max_value=9000),
        ratio=st.sampled_from([0.5, 0.1, 0.02]),
        seed=st.integers(min_value=0, max_value=500),
        bucket_bytes=st.sampled_from([512, 2048, 6400]),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_shapes_and_ratios_match(self, name, size, ratio, seed, bucket_bytes):
        gradient = realistic_gradient(size, seed=seed)
        batched, loop = _twin_pipelines(name, bucket_bytes=bucket_bytes)
        rv = batched.compress(gradient, ratio)
        rl = loop.compress(gradient, ratio)
        _assert_results_match(rv, rl, threshold_rtol=_rtol_for(name))
