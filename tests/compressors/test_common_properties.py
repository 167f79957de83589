"""Contract tests every compressor must satisfy, parametrised across the registry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors import SIDCO_VARIANTS, available_compressors, create_compressor
from repro.gradients import realistic_gradient
from repro.pipeline import CompressionPipeline

#: Every registry compressor, then each SIDCo variant behind a default-size
#: ``CompressionPipeline`` (the bucketed SIDCo path).
NAMES = available_compressors() + [f"{variant}-bucketed" for variant in SIDCO_VARIANTS]
ALL_NAMES = [n for n in NAMES if n != "none"]


def _build(name: str):
    if name.endswith("-bucketed"):
        return CompressionPipeline(create_compressor(name.removesuffix("-bucketed")))
    return create_compressor(name)


@pytest.mark.parametrize("name", ALL_NAMES)
class TestCompressorContract:
    def test_values_come_from_original_vector(self, name, small_gradient):
        compressor = _build(name)
        result = compressor.compress(small_gradient, 0.05)
        sparse = result.sparse
        if name == "randomk":
            # Random-k rescales by d/k to stay unbiased.
            scale = small_gradient.size / sparse.nnz
            assert np.allclose(sparse.values, small_gradient[sparse.indices] * scale)
        else:
            assert np.allclose(sparse.values, small_gradient[sparse.indices])

    def test_a_result_survives_the_next_call(self, name, small_gradient):
        # Fits reuse a kept scratch buffer: no result may be a view of it.
        compressor = _build(name)
        first = compressor.compress(small_gradient, 0.05).sparse
        indices, values = first.indices.copy(), first.values.copy()
        compressor.compress(realistic_gradient(small_gradient.size, seed=99), 0.05)
        assert np.array_equal(first.indices, indices)
        assert np.array_equal(first.values, values)

    def test_indices_unique_and_in_range(self, name, small_gradient):
        result = _build(name).compress(small_gradient, 0.05)
        idx = result.sparse.indices
        assert idx.size == np.unique(idx).size
        assert idx.min() >= 0 and idx.max() < small_gradient.size

    def test_dense_size_preserved(self, name, small_gradient):
        result = _build(name).compress(small_gradient, 0.05)
        assert result.sparse.dense_size == small_gradient.size

    def test_ops_trace_nonempty(self, name, small_gradient):
        result = _build(name).compress(small_gradient, 0.05)
        assert len(result.ops) >= 1
        assert all(op.size >= 0 for op in result.ops)

    def test_achieved_ratio_reported(self, name, small_gradient):
        result = _build(name).compress(small_gradient, 0.05)
        assert result.target_ratio == 0.05
        assert 0.0 < result.achieved_ratio <= 1.0
        assert result.achieved_k == result.sparse.nnz

    def test_empty_gradient_rejected(self, name):
        with pytest.raises(ValueError):
            _build(name).compress(np.array([]), 0.1)

    @pytest.mark.parametrize("ratio", [0.0, -0.1, 1.5])
    def test_invalid_ratio_rejected(self, name, ratio, small_gradient):
        with pytest.raises(ValueError):
            _build(name).compress(small_gradient, ratio)

    def test_fresh_instance_repeats_a_used_ones_first_call(self, name, small_gradient):
        # Nothing resets a compressor: callers build a fresh one, which must
        # not share adaptive or RNG state with instances already in use.
        used = _build(name)
        first = used.compress(small_gradient, 0.01)
        for scale in (3.0, 0.5):
            used.compress(small_gradient * scale, 0.01)
        again = _build(name).compress(small_gradient, 0.01)
        np.testing.assert_array_equal(again.sparse.indices, first.sparse.indices)
        np.testing.assert_array_equal(again.sparse.values, first.sparse.values)


@pytest.mark.parametrize("name", ["topk", "dgc", "sidco-e", "sidco-gp", "sidco-p"])
class TestSelectionQuality:
    """Magnitude-selecting compressors must keep (approximately) the largest elements."""

    def test_kept_values_are_large(self, name, medium_gradient):
        compressor = create_compressor(name)
        ratio = 0.01
        # Warm adaptive compressors into steady state.
        for _ in range(10):
            result = compressor.compress(medium_gradient, ratio)
        kept_min = np.abs(result.sparse.values).min()
        dropped = np.delete(np.abs(medium_gradient), result.sparse.indices)
        # Threshold selections are exact: no dropped element exceeds the smallest kept one.
        assert dropped.max() <= kept_min + 1e-12

    def test_estimation_quality_reasonable(self, name, medium_gradient):
        compressor = create_compressor(name)
        quality = None
        for _ in range(20):
            quality = compressor.compress(medium_gradient, 0.01).estimation_quality
        assert 0.5 <= quality <= 2.0


def _degenerate_case(name: str) -> np.ndarray:
    base = realistic_gradient(4096, seed=99)
    if name == "tiny":
        return realistic_gradient(48, seed=5)
    if name == "ragged-noncontiguous":
        view = base[::3]
        assert not view.flags["C_CONTIGUOUS"]
        return view[:1333]
    if name == "all-zero":
        return np.zeros(256)
    if name == "single-element":
        return np.array([0.37])
    raise AssertionError(name)


@pytest.mark.parametrize("case", ["tiny", "ragged-noncontiguous", "all-zero", "single-element"])
@pytest.mark.parametrize("name", NAMES)
class TestRegistryWideEdgeInputs:
    """Every registered compressor must survive awkward-but-legal inputs.

    Structural validity (unique in-range indices, finite values, preserved
    dense size) must hold for every input.  The achieved-ratio bound is only
    asserted for inputs with a usable magnitude distribution: on an all-zero
    vector the threshold-search baselines (RedSync, GaussianKSGD) legitimately
    land on threshold 0 and keep everything, so no ratio bound is meaningful
    there.
    """

    RATIO = 0.02
    #: Threshold estimators overshoot on tiny samples; the bound only needs to
    #: catch "selected essentially everything" failures.
    SLACK = 5.0

    def test_structurally_valid_result(self, name, case):
        arr = _degenerate_case(case)
        result = _build(name).compress(arr, self.RATIO)
        idx = result.sparse.indices
        assert result.sparse.dense_size == arr.size
        assert idx.size == np.unique(idx).size
        if idx.size:
            assert idx.min() >= 0 and idx.max() < arr.size
        assert np.all(np.isfinite(result.sparse.values))
        assert 0.0 <= result.achieved_ratio <= 1.0

    def test_achieved_ratio_bounded(self, name, case):
        if case == "all-zero":
            pytest.skip("no magnitude distribution to select from")
        arr = _degenerate_case(case)
        result = _build(name).compress(arr, self.RATIO)
        target = result.target_ratio  # NoCompression normalises the target to 1.0
        bound = max(1, int(np.ceil(self.SLACK * target * arr.size)))
        assert result.achieved_k <= bound

    def test_repeat_calls_stay_valid(self, name, case):
        # Adaptive compressors update internal state from degenerate calls;
        # the follow-up call must still produce a valid result.
        arr = _degenerate_case(case)
        compressor = _build(name)
        compressor.compress(arr, self.RATIO)
        result = compressor.compress(arr, self.RATIO)
        assert result.sparse.indices.size == np.unique(result.sparse.indices).size
        assert np.all(np.isfinite(result.sparse.values))


class TestPropertyBasedContract:
    @given(
        size=st.integers(min_value=100, max_value=5000),
        ratio=st.sampled_from([0.5, 0.1, 0.01]),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_topk_keeps_exactly_k(self, size, ratio, seed):
        gradient = realistic_gradient(size, seed=seed)
        result = create_compressor("topk").compress(gradient, ratio)
        expected_k = max(1, int(round(ratio * size)))
        assert result.achieved_k == expected_k

    @given(
        size=st.integers(min_value=1000, max_value=20000),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=20, deadline=None)
    def test_sidco_reconstruction_error_bounded_by_dense_norm(self, size, seed):
        gradient = realistic_gradient(size, seed=seed)
        result = create_compressor("sidco-e").compress(gradient, 0.1)
        error = np.linalg.norm(result.sparse.to_dense() - gradient)
        assert error <= np.linalg.norm(gradient) + 1e-12


def _bucketed_pipeline(name: str, *, reference: bool = False):
    """A multi-bucket pipeline around ``name`` (or its per-bucket reference loop).

    128-byte buckets hold 32 float32 elements, so even the 48-element "tiny"
    case splits into several buckets and the single-element case exercises a
    one-element layout.
    """
    from repro.pipeline import CompressionPipeline
    from tests.pipeline.compressor_reference import ReferencePipeline

    pipeline = ReferencePipeline if reference else CompressionPipeline
    return pipeline(create_compressor(name), bucket_bytes=128)


@pytest.mark.parametrize("case", ["tiny", "ragged-noncontiguous", "all-zero", "single-element"])
@pytest.mark.parametrize("name", available_compressors())
class TestRegistryWideBucketedEdgeInputs:
    """The batched ``fit_all_buckets`` paths on the same awkward inputs.

    Each case runs through a many-small-buckets pipeline twice — once on the
    batched fit and once on the per-bucket scalar reference loop — and the
    two must agree on the selection while staying structurally valid.
    """

    RATIO = 0.02

    def test_batched_result_structurally_valid(self, name, case):
        arr = _degenerate_case(case)
        result = _bucketed_pipeline(name).compress(arr, self.RATIO)
        idx = result.sparse.indices
        assert result.sparse.dense_size == arr.size
        assert idx.size == np.unique(idx).size
        if idx.size:
            assert idx.min() >= 0 and idx.max() < arr.size
        assert np.all(np.isfinite(result.sparse.values))
        assert sum(result.metadata["bucket_nnz"]) == result.sparse.nnz

    def test_batched_matches_scalar_loop(self, name, case):
        arr = _degenerate_case(case)
        rv = _bucketed_pipeline(name).compress(arr, self.RATIO)
        rl = _bucketed_pipeline(name, reference=True).compress(arr, self.RATIO)
        np.testing.assert_array_equal(rv.sparse.indices, rl.sparse.indices)
        np.testing.assert_array_equal(rv.sparse.values, rl.sparse.values)
        assert rv.metadata["bucket_nnz"] == rl.metadata["bucket_nnz"]

    def test_full_ratio_keeps_everything_selectable(self, name, case):
        if name.startswith("sidco"):
            pytest.skip("SIDCo's SID fit rejects delta=1.0 by contract")
        arr = _degenerate_case(case)
        rv = _bucketed_pipeline(name).compress(arr, 1.0)
        rl = _bucketed_pipeline(name, reference=True).compress(arr, 1.0)
        np.testing.assert_array_equal(rv.sparse.indices, rl.sparse.indices)
        if name in ("none", "topk"):
            # Exact selectors must keep every coordinate at ratio 1.0.
            assert rv.sparse.nnz == arr.size

    def test_empty_gradient_rejected(self, name, case):
        del case  # the empty vector is its own case; parametrisation reused for the id
        with pytest.raises(ValueError):
            _bucketed_pipeline(name).compress(np.array([]), self.RATIO)
