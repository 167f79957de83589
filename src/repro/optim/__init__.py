"""Optimisers, gradient clipping and error feedback."""

from .clip import clip_by_global_norm, clip_flat_by_norm
from .error_feedback import ErrorFeedback
from .sgd import SGD

__all__ = [
    "SGD",
    "ErrorFeedback",
    "clip_by_global_norm",
    "clip_flat_by_norm",
]
