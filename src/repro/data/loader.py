"""Batching and worker sharding for the data-parallel simulator.

In synchronous data-parallel training each of the ``N`` workers owns a
disjoint shard of the training set and iterates over it in its own order
(Algorithm 2).  ``shard_dataset`` performs the partitioning;
``BatchIterator`` yields an endless, reshuffled stream of mini-batches from a
shard so the trainer can run an arbitrary number of iterations.
"""

from __future__ import annotations

import numpy as np

from .synthetic import ArrayDataset
from .text import LanguageModelingDataset

Dataset = ArrayDataset | LanguageModelingDataset


def shard_dataset(dataset: Dataset, num_shards: int, *, seed: int = 0) -> list[Dataset]:
    """Split a dataset into ``num_shards`` disjoint, near-equal random shards."""
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    n = len(dataset)
    if n < num_shards:
        raise ValueError(f"cannot split {n} examples into {num_shards} shards")
    rng = np.random.default_rng(seed)
    permutation = rng.permutation(n)
    return [dataset.subset(np.sort(chunk)) for chunk in np.array_split(permutation, num_shards)]


class BatchIterator:
    """Endless mini-batch stream over one dataset shard.

    Every epoch the shard is reshuffled with the iterator's own generator, so
    two workers with different seeds see different orders even if (in tests)
    they share a shard.
    """

    def __init__(self, dataset: Dataset, batch_size: int, *, seed: int = 0, drop_last: bool = False) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.dataset = dataset
        self.batch_size = min(batch_size, len(dataset))
        self.drop_last = drop_last
        self._rng = np.random.default_rng(seed)
        self._order = self._rng.permutation(len(dataset))
        self._cursor = 0
        self.epochs_completed = 0

    def next_batch(self) -> tuple[np.ndarray, np.ndarray]:
        """Return the next ``(inputs, targets)`` batch, reshuffling at epoch ends."""
        n = len(self.dataset)
        if self._cursor + self.batch_size > n:
            remaining = n - self._cursor
            if remaining and not self.drop_last and self._cursor < n:
                indices = self._order[self._cursor :]
            else:
                indices = np.empty(0, dtype=np.int64)
            self._order = self._rng.permutation(n)
            self._cursor = 0
            self.epochs_completed += 1
            if indices.size == 0:
                indices = self._order[: self.batch_size]
                self._cursor = self.batch_size
        else:
            indices = self._order[self._cursor : self._cursor + self.batch_size]
            self._cursor += self.batch_size
        subset = self.dataset.subset(indices)
        return subset.inputs, subset.targets
