"""Fixed-size and layer-aware gradient bucketing (DDP-style).

Real data-parallel stacks (Horovod fusion buffers, PyTorch DDP gradient
buckets) never communicate the whole flattened gradient at once: the gradient
is split into buckets that are compressed and shipped as soon as they are
ready, which bounds allocator pressure and lets communication overlap with
backpropagation.  :class:`BucketLayout` describes such a split of a flat
``d``-element gradient, in two flavours:

* the default *uniform* layout of ``ceil(d / bucket_size)`` buckets where
  every bucket holds ``bucket_size`` elements except possibly a smaller
  (ragged) last one,
* a *layer-aware* layout (:meth:`BucketLayout.from_flat_spec`) whose bucket
  boundaries snap to :class:`~repro.tensor.flatten.FlatSpec` slot (layer)
  boundaries the way DDP's bucket builder assigns parameters to buckets — no
  layer is split across buckets unless the layer alone exceeds the bucket
  budget.

Because backpropagation produces gradients in reverse layer order, each bucket
also has a *gradient-ready* point: the fraction of the backward pass after
which every element in the bucket has its gradient
(:meth:`BucketLayout.ready_fractions`).  The event-driven iteration schedule
uses these to overlap per-bucket compression/communication with backprop.

The layout is pure arithmetic — no data is copied until a caller asks for
bucket views — so it is equally usable by the compression pipeline, the
timeline model (per-bucket communication pricing) and tests.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..tensor.flatten import FlatSpec
from ..tensor.sparse import FLOAT_BYTES, SparseGradient

#: Default bucket size in bytes.  4 MiB of fp32 wire payload (1 Mi elements)
#: is in the range used by DDP-style fusion buffers and is large enough that
#: per-bucket fitting stays statistically stable at aggressive ratios.
DEFAULT_BUCKET_BYTES = 4 * 1024 * 1024


@dataclass(frozen=True)
class BucketLayout:
    """Split of a flat ``total_size``-element vector into gradient buckets.

    With ``boundaries=None`` the split is uniform: fixed ``bucket_size``
    elements per bucket with a possibly ragged last bucket.  With explicit
    ``boundaries`` (ascending bucket start offsets, first one ``0``) bucket
    sizes may vary — the layer-aware layout built by :meth:`from_flat_spec`
    uses this; ``bucket_size`` then records the nominal per-bucket element
    budget the boundaries were built against.
    """

    total_size: int
    bucket_size: int
    boundaries: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.total_size < 1:
            raise ValueError(f"total_size must be >= 1, got {self.total_size}")
        if self.bucket_size < 1:
            raise ValueError(f"bucket_size must be >= 1, got {self.bucket_size}")
        if self.boundaries is not None:
            if not self.boundaries or self.boundaries[0] != 0:
                raise ValueError("boundaries must be non-empty and start at offset 0")
            if any(b >= c for b, c in zip(self.boundaries, self.boundaries[1:])):
                raise ValueError("boundaries must be strictly increasing")
            if self.boundaries[-1] >= self.total_size:
                raise ValueError("boundaries must lie inside [0, total_size)")

    @classmethod
    def from_bytes(
        cls,
        total_size: int,
        bucket_bytes: int = DEFAULT_BUCKET_BYTES,
        *,
        element_bytes: int = FLOAT_BYTES,
    ) -> "BucketLayout":
        """Uniform layout for a byte budget per bucket (fp32 wire elements by default)."""
        if bucket_bytes < element_bytes:
            raise ValueError(
                f"bucket_bytes ({bucket_bytes}) must hold at least one {element_bytes}-byte element"
            )
        return cls(total_size=total_size, bucket_size=bucket_bytes // element_bytes)

    @classmethod
    @functools.lru_cache(maxsize=64)
    def from_flat_spec(
        cls,
        spec: FlatSpec,
        bucket_bytes: int = DEFAULT_BUCKET_BYTES,
        *,
        element_bytes: int = FLOAT_BYTES,
    ) -> "BucketLayout":
        """Layer-aware layout whose bucket boundaries snap to ``spec``'s slots.

        Slots (layers) are packed into buckets DDP-style: a bucket closes when
        adding the next slot would exceed the per-bucket element budget, so no
        slot is ever split across buckets — except slots that alone exceed the
        budget, which are cut into budget-sized chunks so every bucket stays
        within ``bucket_bytes``.
        """
        if bucket_bytes < element_bytes:
            raise ValueError(
                f"bucket_bytes ({bucket_bytes}) must hold at least one {element_bytes}-byte element"
            )
        if not spec.slots:
            raise ValueError("spec must contain at least one slot")
        capacity = bucket_bytes // element_bytes
        # Slots tile the flat vector contiguously, so the open bucket's fill is
        # always ``slot.offset - boundaries[-1]``.
        boundaries: list[int] = [0]
        for slot in spec.slots:
            if slot.size > capacity:
                # Oversized layer: close the open bucket, then cut the layer
                # into budget-sized chunks (its tail chunk stays open).
                if slot.offset != boundaries[-1]:
                    boundaries.append(slot.offset)
                boundaries.extend(range(slot.offset + capacity, slot.offset + slot.size, capacity))
            elif slot.offset + slot.size - boundaries[-1] > capacity:
                boundaries.append(slot.offset)
        return cls(total_size=spec.total_size, bucket_size=capacity, boundaries=tuple(boundaries))

    @property
    def is_uniform(self) -> bool:
        return self.boundaries is None

    @property
    def num_buckets(self) -> int:
        if self.boundaries is not None:
            return len(self.boundaries)
        return -(-self.total_size // self.bucket_size)

    @property
    def last_bucket_size(self) -> int:
        """Size of the final (possibly ragged) bucket."""
        if self.boundaries is not None:
            return self.total_size - self.boundaries[-1]
        rem = self.total_size % self.bucket_size
        return rem if rem else self.bucket_size

    def starts(self) -> np.ndarray:
        """Offset of each bucket into the flat vector."""
        if self.boundaries is not None:
            return np.asarray(self.boundaries, dtype=np.int64)
        return np.arange(self.num_buckets, dtype=np.int64) * self.bucket_size

    def sizes(self) -> np.ndarray:
        """Element count of each bucket."""
        if self.boundaries is not None:
            edges = np.append(self.starts(), self.total_size)
            return np.diff(edges)
        sizes = np.full(self.num_buckets, self.bucket_size, dtype=np.int64)
        sizes[-1] = self.last_bucket_size
        return sizes

    def bounds(self, index: int) -> tuple[int, int]:
        """Half-open ``[start, stop)`` range of bucket ``index``."""
        if not 0 <= index < self.num_buckets:
            raise IndexError(f"bucket index {index} out of range for {self.num_buckets} buckets")
        if self.boundaries is not None:
            start = self.boundaries[index]
            stop = self.boundaries[index + 1] if index + 1 < len(self.boundaries) else self.total_size
            return start, stop
        start = index * self.bucket_size
        return start, min(start + self.bucket_size, self.total_size)

    def bucket_of(self, indices: np.ndarray) -> np.ndarray:
        """Bucket id of each flat element index."""
        indices = np.asarray(indices, dtype=np.int64)
        if self.boundaries is not None:
            return np.searchsorted(self.starts(), indices, side="right") - 1
        return indices // self.bucket_size

    def ready_fractions(self) -> np.ndarray:
        """Backward-pass fraction after which each bucket's gradient is complete.

        Backpropagation walks the layers in reverse order, producing gradients
        from the *end* of the flat vector towards the front at a rate
        proportional to the element count; a bucket is complete once its
        lowest-offset element has its gradient.  The last bucket is therefore
        ready first, and the bucket holding offset 0 exactly at the end of the
        backward pass (fraction 1.0).
        """
        starts = self.starts().astype(np.float64)
        return (self.total_size - starts) / self.total_size


def split_into_buckets(flat: np.ndarray, layout: BucketLayout) -> list[np.ndarray]:
    """Zero-copy views of ``flat``, one per bucket."""
    flat = np.asarray(flat).ravel()
    if flat.size != layout.total_size:
        raise ValueError(f"flat vector has {flat.size} elements, layout expects {layout.total_size}")
    return [flat[start:stop] for start, stop in (layout.bounds(i) for i in range(layout.num_buckets))]


def merge_sparse_buckets(buckets: list[SparseGradient], layout: BucketLayout) -> SparseGradient:
    """Merge per-bucket sparse gradients back into one global sparse gradient.

    Bucket-local indices are shifted by each bucket's offset; because buckets
    tile the flat vector, the merged indices are unique by construction (and
    globally sorted whenever each bucket's indices are sorted).
    """
    if len(buckets) != layout.num_buckets:
        raise ValueError(f"got {len(buckets)} bucket results, layout expects {layout.num_buckets}")
    indices: list[np.ndarray] = []
    values: list[np.ndarray] = []
    for i, sparse in enumerate(buckets):
        start, stop = layout.bounds(i)
        if sparse.dense_size != stop - start:
            raise ValueError(
                f"bucket {i} has dense_size {sparse.dense_size}, layout expects {stop - start}"
            )
        indices.append(sparse.indices + start)
        values.append(sparse.values)
    return SparseGradient(
        indices=np.concatenate(indices),
        values=np.concatenate(values),
        dense_size=layout.total_size,
    )
