"""Tests for sharding and batching."""

import numpy as np
import pytest

from repro.data import BatchIterator, shard_dataset
from tests.synthetic import make_blobs_classification


class TestSharding:
    def test_shards_are_disjoint_and_cover_dataset(self, blobs_dataset):
        shards = shard_dataset(blobs_dataset, 4, seed=0)
        assert len(shards) == 4
        total = sum(len(s) for s in shards)
        assert total == len(blobs_dataset)
        # Disjointness: inputs across shards are all distinct rows.
        all_rows = np.concatenate([s.inputs for s in shards])
        assert all_rows.shape[0] == len(blobs_dataset)
        assert np.unique(all_rows, axis=0).shape[0] == np.unique(blobs_dataset.inputs, axis=0).shape[0]

    def test_near_equal_sizes(self, blobs_dataset):
        shards = shard_dataset(blobs_dataset, 3, seed=0)
        sizes = [len(s) for s in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_works_for_language_modeling(self, lm_dataset):
        shards = shard_dataset(lm_dataset, 4, seed=1)
        assert all(s.vocab_size == lm_dataset.vocab_size for s in shards)

    def test_too_many_shards_rejected(self):
        ds = make_blobs_classification(num_examples=4, num_classes=2)
        with pytest.raises(ValueError):
            shard_dataset(ds, 10)

    def test_invalid_shard_count_rejected(self, blobs_dataset):
        with pytest.raises(ValueError):
            shard_dataset(blobs_dataset, 0)


class TestBatchIterator:
    def test_batch_shapes(self, blobs_dataset):
        it = BatchIterator(blobs_dataset, batch_size=16, seed=0)
        x, y = it.next_batch()
        assert x.shape[0] == 16
        assert y.shape[0] == 16

    def test_epoch_covers_all_examples(self):
        ds = make_blobs_classification(num_examples=60, num_features=2, num_classes=2, seed=0)
        it = BatchIterator(ds, batch_size=10, seed=0)
        seen = []
        for _ in range(6):  # 60 examples in batches of 10
            x, _ = it.next_batch()
            seen.append(x)
        seen = np.concatenate(seen)
        assert seen.shape[0] == 60
        assert np.unique(seen, axis=0).shape[0] == np.unique(ds.inputs, axis=0).shape[0]

    def test_endless_iteration_and_epoch_counter(self, blobs_dataset):
        it = BatchIterator(blobs_dataset, batch_size=50, seed=0)
        for _ in range(10):
            it.next_batch()
        assert it.epochs_completed >= 2

    def test_batch_larger_than_dataset_is_clamped(self, blobs_dataset):
        it = BatchIterator(blobs_dataset, batch_size=10_000, seed=0)
        x, _ = it.next_batch()
        assert x.shape[0] == len(blobs_dataset)

    def test_different_seeds_give_different_orders(self, blobs_dataset):
        a = BatchIterator(blobs_dataset, batch_size=32, seed=0).next_batch()[0]
        b = BatchIterator(blobs_dataset, batch_size=32, seed=1).next_batch()[0]
        assert not np.allclose(a, b)

    def test_invalid_batch_size_rejected(self, blobs_dataset):
        with pytest.raises(ValueError):
            BatchIterator(blobs_dataset, batch_size=0)
