"""Gradient synthesis and capture utilities."""

from .capture import GradientCapture
from .synthetic import MODEL_DIMENSIONS, SYNTHETIC_TENSOR_SIZES, realistic_gradient

__all__ = [
    "MODEL_DIMENSIONS",
    "SYNTHETIC_TENSOR_SIZES",
    "GradientCapture",
    "realistic_gradient",
]
