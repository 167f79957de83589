"""Optimisers, gradient clipping and error feedback."""

from .clip import clip_flat_by_norm
from .error_feedback import ErrorFeedback
from .sgd import SGD

__all__ = [
    "SGD",
    "ErrorFeedback",
    "clip_flat_by_norm",
]
