"""Error-feedback (EC) memory for compressed gradients.

With aggressive sparsification, the elements dropped by the compressor carry
information that would otherwise be lost; error feedback (Karimireddy et al.,
2019) stores the dropped residual locally and adds it back to the next
iteration's gradient before compression, which restores the convergence
guarantees (Eq. 43) and is enabled for every compressor in the paper's
evaluation.
"""

from __future__ import annotations

import numpy as np

from ..tensor.sparse import SparseGradient


class ErrorFeedback:
    """Per-worker residual memory for one flattened gradient buffer."""

    def __init__(self, dimension: int) -> None:
        if dimension <= 0:
            raise ValueError("dimension must be positive")
        self.dimension = dimension
        self._memory = np.zeros(dimension, dtype=np.float64)

    def correct(self, gradient: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Return ``gradient + residual`` — the vector that should be compressed — into ``out`` if given."""
        grad = np.asarray(gradient, dtype=np.float64).ravel()
        if grad.size != self.dimension:
            raise ValueError(f"gradient has {grad.size} elements, expected {self.dimension}")
        return np.add(grad, self._memory, out=out)

    def update(self, corrected_gradient: np.ndarray, transmitted: SparseGradient) -> None:
        """Store the part of ``corrected_gradient`` that was *not* transmitted."""
        corrected = np.asarray(corrected_gradient, dtype=np.float64).ravel()
        if corrected.size != self.dimension:
            raise ValueError(f"gradient has {corrected.size} elements, expected {self.dimension}")
        if transmitted.dense_size != self.dimension:
            raise ValueError("transmitted gradient dimension mismatch")
        residual = corrected.copy()
        residual[transmitted.indices] -= transmitted.values
        self._memory = residual
