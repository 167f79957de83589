"""Tests for the sparse gradient container and aggregation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor.sparse import FLOAT_BYTES, INDEX_BYTES, SparseGradient, aggregate_sparse


class TestConstruction:
    def test_basic_properties(self):
        sp = SparseGradient(indices=np.array([1, 3]), values=np.array([0.5, -2.0]), dense_size=6)
        assert sp.nnz == 2
        assert sp.density == pytest.approx(2 / 6)
        assert sp.payload_bytes() == 2 * (FLOAT_BYTES + INDEX_BYTES)
        assert sp.dense_bytes() == 6 * FLOAT_BYTES
        assert sp.volume_reduction() == pytest.approx(6 * FLOAT_BYTES / (2 * 8))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            SparseGradient(indices=np.array([0]), values=np.array([1.0, 2.0]), dense_size=4)

    def test_out_of_range_indices_rejected(self):
        with pytest.raises(ValueError):
            SparseGradient(indices=np.array([5]), values=np.array([1.0]), dense_size=4)
        with pytest.raises(ValueError):
            SparseGradient(indices=np.array([-1]), values=np.array([1.0]), dense_size=4)

    def test_dense_size_too_small_rejected(self):
        with pytest.raises(ValueError):
            SparseGradient(indices=np.arange(5), values=np.ones(5), dense_size=3)


class TestRoundTrip:
    def test_to_dense_from_nonzero_mask(self):
        dense = np.array([0.0, 1.5, 0.0, -2.0, 0.0])
        sp = SparseGradient.from_mask(dense, dense != 0)
        assert sp.nnz == 2
        assert np.allclose(sp.to_dense(), dense)

    def test_from_mask(self):
        dense = np.array([1.0, -3.0, 0.5, 2.0])
        mask = np.abs(dense) >= 1.0
        sp = SparseGradient.from_mask(dense, mask)
        assert sp.nnz == 3
        assert np.allclose(sp.to_dense(), [1.0, -3.0, 0.0, 2.0])

    def test_from_mask_wrong_length(self):
        with pytest.raises(ValueError):
            SparseGradient.from_mask(np.ones(3), np.array([True, False]))

    @given(st.integers(min_value=1, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_property_roundtrip(self, size):
        rng = np.random.default_rng(size)
        dense = rng.normal(size=size) * (rng.uniform(size=size) > 0.7)
        sp = SparseGradient.from_mask(dense, dense != 0)
        assert np.allclose(sp.to_dense(), dense)
        assert sp.nnz == np.count_nonzero(dense)


class TestAggregation:
    def test_sums_overlapping_and_disjoint_indices(self):
        a = SparseGradient(indices=np.array([0, 2]), values=np.array([1.0, 1.0]), dense_size=4)
        b = SparseGradient(indices=np.array([2, 3]), values=np.array([2.0, 5.0]), dense_size=4)
        total = aggregate_sparse([a, b])
        assert np.allclose(total, [1.0, 0.0, 3.0, 5.0])

    def test_duplicate_indices_within_one_gradient(self):
        a = SparseGradient(indices=np.array([1, 1]), values=np.array([1.0, 2.0]), dense_size=3)
        assert np.allclose(aggregate_sparse([a]), [0.0, 3.0, 0.0])

    def test_dimension_mismatch_rejected(self):
        a = SparseGradient(indices=np.array([0]), values=np.array([1.0]), dense_size=3)
        b = SparseGradient(indices=np.array([0]), values=np.array([1.0]), dense_size=4)
        with pytest.raises(ValueError):
            aggregate_sparse([a, b])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            aggregate_sparse([])
