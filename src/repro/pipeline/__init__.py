"""Bucketed compression pipeline: DDP-style fixed-size gradient buckets.

Splits the flattened gradient into fixed-size buckets, fits every bucket in
one batched ``fit_all_buckets`` call (for SIDCo, a streamed multi-stage SID
fit), and merges the sparse selections — recording per-bucket payloads so the
timeline model can price communication bucket by bucket.
"""

from .bucketing import (
    DEFAULT_BUCKET_BYTES,
    BucketLayout,
    merge_sparse_buckets,
    split_into_buckets,
)
from .pipeline import CompressionPipeline
from .vectorized import BucketedThresholdEstimate, estimate_multi_stage_bucketed

__all__ = [
    "DEFAULT_BUCKET_BYTES",
    "BucketLayout",
    "BucketedThresholdEstimate",
    "CompressionPipeline",
    "estimate_multi_stage_bucketed",
    "merge_sparse_buckets",
    "split_into_buckets",
]
