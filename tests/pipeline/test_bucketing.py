"""Bucket layout arithmetic and split/merge round-trips."""

import numpy as np
import pytest

from repro.pipeline import BucketLayout, merge_sparse_buckets, split_into_buckets
from repro.tensor.flatten import FlatSpec
from repro.tensor.sparse import FLOAT_BYTES, SparseGradient


class TestBucketLayout:
    def test_even_split(self):
        layout = BucketLayout(total_size=1000, bucket_size=250)
        assert layout.num_buckets == 4
        assert layout.last_bucket_size == 250
        assert layout.sizes().tolist() == [250] * 4
        assert layout.starts().tolist() == [0, 250, 500, 750]

    def test_ragged_split(self):
        layout = BucketLayout(total_size=1003, bucket_size=250)
        assert layout.num_buckets == 5
        assert layout.last_bucket_size == 3
        assert layout.sizes().tolist() == [250, 250, 250, 250, 3]
        assert layout.bounds(4) == (1000, 1003)

    def test_single_bucket_when_budget_exceeds_size(self):
        layout = BucketLayout(total_size=10, bucket_size=1000)
        assert layout.num_buckets == 1
        assert layout.last_bucket_size == 10

    def test_from_bytes_uses_element_size(self):
        layout = BucketLayout.from_bytes(1_000_000, 4 * 1024, element_bytes=FLOAT_BYTES)
        assert layout.bucket_size == 1024

    def test_sizes_sum_to_total(self):
        for total in (1, 7, 64, 1000, 1003):
            layout = BucketLayout(total_size=total, bucket_size=64)
            assert int(layout.sizes().sum()) == total

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            BucketLayout(total_size=0, bucket_size=10)
        with pytest.raises(ValueError):
            BucketLayout(total_size=10, bucket_size=0)
        with pytest.raises(ValueError):
            BucketLayout.from_bytes(10, 2, element_bytes=4)
        with pytest.raises(IndexError):
            BucketLayout(total_size=10, bucket_size=4).bounds(3)


class TestLayerAwareLayout:
    """DDP-style snapping of bucket boundaries to FlatSpec slot boundaries."""

    def _spec(self, sizes):
        return FlatSpec.from_named_shapes({f"p{i}": (s,) for i, s in enumerate(sizes)})

    @staticmethod
    def _element_budget(elements):
        """bucket_bytes for an fp32 budget of ``elements`` wire elements."""
        return elements * FLOAT_BYTES

    def test_boundaries_snap_to_slot_offsets(self):
        spec = self._spec([30, 50, 40, 10, 60])
        layout = BucketLayout.from_flat_spec(spec, self._element_budget(100))
        assert not layout.is_uniform
        slot_offsets = {slot.offset for slot in spec.slots}
        assert all(b in slot_offsets for b in layout.boundaries)
        # [30+50], [40+10], [60]
        assert layout.starts().tolist() == [0, 80, 130]
        assert layout.sizes().tolist() == [80, 50, 60]

    def test_no_slot_split_across_buckets(self, rng):
        sizes = rng.integers(1, 90, size=40).tolist()
        spec = self._spec(sizes)
        layout = BucketLayout.from_flat_spec(spec, self._element_budget(100))
        slot_edges = {slot.offset for slot in spec.slots}
        assert all(b in slot_edges for b in layout.boundaries)
        assert int(layout.sizes().sum()) == spec.total_size
        assert (layout.sizes() <= 100).all()

    def test_oversized_slot_is_chunked_to_budget(self):
        spec = self._spec([20, 350, 30])
        layout = BucketLayout.from_flat_spec(spec, self._element_budget(100))
        # [20], [100], [100], [100], [50+30]
        assert layout.starts().tolist() == [0, 20, 120, 220, 320]
        assert layout.sizes().tolist() == [20, 100, 100, 100, 80]
        assert (layout.sizes() <= 100).all()
        # Boundaries inside the flat vector are either slot offsets or cuts
        # inside the single oversized slot.
        big = spec.slots[1]  # "p1"
        for b in layout.boundaries:
            inside_big = big.offset < b < big.offset + big.size
            assert b in {slot.offset for slot in spec.slots} or inside_big

    def test_single_slot_smaller_than_budget(self):
        spec = self._spec([7])
        layout = BucketLayout.from_flat_spec(spec, self._element_budget(100))
        assert layout.num_buckets == 1
        assert layout.sizes().tolist() == [7]
        assert layout.ready_fractions().tolist() == [1.0]

    def test_ready_fractions_reverse_layer_order(self):
        spec = self._spec([40, 40, 40])
        layout = BucketLayout.from_flat_spec(spec, self._element_budget(40))
        fractions = layout.ready_fractions()
        # Bucket 0 holds the first layer, whose gradient arrives last.
        assert fractions[0] == pytest.approx(1.0)
        assert np.all(np.diff(fractions) < 0.0)
        assert fractions[-1] == pytest.approx(40 / 120)

    def test_bucket_of_maps_indices_to_buckets(self):
        spec = self._spec([30, 50, 40])
        layout = BucketLayout.from_flat_spec(spec, self._element_budget(80))
        assert layout.starts().tolist() == [0, 80]
        ids = layout.bucket_of(np.array([0, 79, 80, 119]))
        assert ids.tolist() == [0, 0, 1, 1]
        # Uniform layouts use plain division.
        uniform = BucketLayout(total_size=120, bucket_size=50)
        assert uniform.bucket_of(np.array([0, 49, 50, 119])).tolist() == [0, 0, 1, 2]

    def test_split_merge_round_trip_layer_aware(self, rng):
        spec = self._spec([30, 50, 300, 10, 60])
        layout = BucketLayout.from_flat_spec(spec, self._element_budget(100))
        flat = rng.normal(size=spec.total_size)
        views = split_into_buckets(flat, layout)
        assert [v.size for v in views] == layout.sizes().tolist()
        merged = merge_sparse_buckets([SparseGradient.from_mask(v, v != 0) for v in views], layout)
        np.testing.assert_array_equal(merged.to_dense(), flat)

    def test_invalid_boundaries_rejected(self):
        with pytest.raises(ValueError):
            BucketLayout(total_size=100, bucket_size=10, boundaries=(5, 20))
        with pytest.raises(ValueError):
            BucketLayout(total_size=100, bucket_size=10, boundaries=(0, 20, 20))
        with pytest.raises(ValueError):
            BucketLayout(total_size=100, bucket_size=10, boundaries=(0, 120))
        with pytest.raises(ValueError):
            BucketLayout(total_size=100, bucket_size=10, boundaries=())
        with pytest.raises(ValueError):
            BucketLayout.from_flat_spec(self._spec([10]), bucket_bytes=1)


class TestSplitMergeRoundTrip:
    @pytest.mark.parametrize("total,bucket", [(1000, 250), (1003, 250), (5, 2), (17, 17), (1, 4)])
    def test_dense_round_trip_is_exact(self, total, bucket, rng):
        flat = rng.normal(size=total)
        layout = BucketLayout(total_size=total, bucket_size=bucket)
        views = split_into_buckets(flat, layout)
        assert len(views) == layout.num_buckets
        # Views are zero-copy slices that tile the vector exactly.
        assert all(v.base is flat or v.base is v for v in views)
        assert np.array_equal(np.concatenate(views), flat)
        merged = merge_sparse_buckets([SparseGradient.from_mask(v, v != 0) for v in views], layout)
        np.testing.assert_array_equal(merged.to_dense(), flat)

    def test_sparse_round_trip_ragged_last_bucket(self, rng):
        flat = rng.normal(size=1003)
        layout = BucketLayout(total_size=1003, bucket_size=100)
        views = split_into_buckets(flat, layout)
        buckets = []
        for view in views:
            keep = np.abs(view) >= np.quantile(np.abs(view), 0.9)
            buckets.append(SparseGradient.from_mask(view, keep))
        merged = merge_sparse_buckets(buckets, layout)
        # Global indices are unique, sorted, and point back at the original values.
        assert merged.indices.size == np.unique(merged.indices).size
        assert np.all(np.diff(merged.indices) > 0)
        np.testing.assert_array_equal(merged.values, flat[merged.indices])

    def test_merge_validates_bucket_shapes(self, rng):
        flat = rng.normal(size=100)
        layout = BucketLayout(total_size=100, bucket_size=50)
        good = [SparseGradient.from_mask(v, v != 0) for v in split_into_buckets(flat, layout)]
        with pytest.raises(ValueError):
            merge_sparse_buckets(good[:1], layout)
        bad = [good[0], SparseGradient(indices=np.arange(3), values=np.ones(3), dense_size=3)]
        with pytest.raises(ValueError):
            merge_sparse_buckets(bad, layout)

    def test_split_validates_length(self, rng):
        layout = BucketLayout(total_size=100, bucket_size=50)
        with pytest.raises(ValueError):
            split_into_buckets(rng.normal(size=99), layout)
