"""Synthetic datasets and sharding/batching utilities."""

from .images import make_image_classification
from .loader import BatchIterator, shard_dataset
from .sequence import make_sequence_classification
from .synthetic import ArrayDataset
from .text import LanguageModelingDataset, make_language_modeling

__all__ = [
    "ArrayDataset",
    "BatchIterator",
    "LanguageModelingDataset",
    "make_image_classification",
    "make_language_modeling",
    "make_sequence_classification",
    "shard_dataset",
]
