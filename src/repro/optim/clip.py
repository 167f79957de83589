"""Gradient clipping (used by the RNN training recipes)."""

from __future__ import annotations

import numpy as np


def clip_flat_by_norm(gradient: np.ndarray, max_norm: float) -> tuple[np.ndarray, float]:
    """Clip a flattened gradient vector by its L2 norm."""
    if max_norm <= 0.0:
        raise ValueError("max_norm must be positive")
    grad = np.asarray(gradient, dtype=np.float64)
    norm = float(np.linalg.norm(grad))
    if norm <= max_norm or norm == 0.0:
        return grad, norm
    return grad * (max_norm / norm), norm
