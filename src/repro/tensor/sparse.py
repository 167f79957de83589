"""Sparse gradient representation with wire-volume accounting.

Sparsified gradients travel over the network as ``(indices, values)`` pairs.
The communication-volume model the speed-up figures depend on (Figures 3, 5,
6, 10, 13) needs a faithful account of how many bytes each representation
costs, so the sparse container records its dense dimension and exposes both
its payload size and the dense equivalent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FLOAT_BYTES = 4  # the paper's systems ship fp32 gradients
INDEX_BYTES = 4  # int32 indices, as used by the Horovod/PyTorch integrations


@dataclass(frozen=True)
class SparseGradient:
    """A k-sparse view of a d-dimensional gradient vector."""

    indices: np.ndarray
    values: np.ndarray
    dense_size: int

    def __post_init__(self) -> None:
        indices = np.asarray(self.indices)
        values = np.asarray(self.values)
        if indices.ndim != 1 or values.ndim != 1:
            raise ValueError("indices and values must be 1-D arrays")
        if indices.size != values.size:
            raise ValueError(
                f"indices ({indices.size}) and values ({values.size}) must have the same length"
            )
        if self.dense_size < indices.size:
            raise ValueError("dense_size cannot be smaller than the number of non-zeros")
        if indices.size and (indices.min() < 0 or indices.max() >= self.dense_size):
            raise ValueError("indices out of range for dense_size")
        object.__setattr__(self, "indices", indices.astype(np.int64, copy=False))
        object.__setattr__(self, "values", values.astype(np.float64, copy=False))

    @property
    def nnz(self) -> int:
        """Number of transmitted (non-zero) elements."""
        return int(self.indices.size)

    @property
    def density(self) -> float:
        """Achieved compression ratio ``k_hat / d``."""
        return self.nnz / self.dense_size if self.dense_size else 0.0

    def payload_bytes(self) -> int:
        """Bytes on the wire for the sparse representation (values + indices)."""
        return self.nnz * (FLOAT_BYTES + INDEX_BYTES)

    def dense_bytes(self) -> int:
        """Bytes on the wire for the equivalent uncompressed gradient."""
        return self.dense_size * FLOAT_BYTES

    def volume_reduction(self) -> float:
        """Dense bytes divided by sparse bytes (how much communication shrank)."""
        payload = self.payload_bytes()
        if payload == 0:
            return float("inf")
        return self.dense_bytes() / payload

    def to_dense(self) -> np.ndarray:
        """Materialise the dense vector (zeros everywhere except the kept entries)."""
        dense = np.zeros(self.dense_size, dtype=np.float64)
        dense[self.indices] = self.values
        return dense

    @classmethod
    def from_mask(cls, dense: np.ndarray, mask: np.ndarray) -> "SparseGradient":
        """Build a sparse gradient keeping only elements where ``mask`` is True."""
        dense = np.asarray(dense, dtype=np.float64).ravel()
        mask = np.asarray(mask, dtype=bool).ravel()
        if mask.size != dense.size:
            raise ValueError("mask and dense vector must have the same length")
        indices = np.flatnonzero(mask)
        return cls(indices=indices, values=dense[indices], dense_size=dense.size)


def aggregate_sparse(gradients: list[SparseGradient]) -> np.ndarray:
    """Sum a list of sparse gradients into one dense vector (all-gather semantics).

    This mirrors the paper's peer-to-peer aggregation: every worker gathers all
    sparse contributions and sums them locally; indices from different workers
    may overlap or not.
    """
    if not gradients:
        raise ValueError("need at least one sparse gradient to aggregate")
    dense_size = gradients[0].dense_size
    total = np.zeros(dense_size, dtype=np.float64)
    for grad in gradients:
        if grad.dense_size != dense_size:
            raise ValueError("all sparse gradients must share the same dense size")
        np.add.at(total, grad.indices, grad.values)
    return total
