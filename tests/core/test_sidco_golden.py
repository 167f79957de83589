"""Golden k̂/k and stage counts of SIDCo-e/gp/p (the paper's own quantity).

Each row compresses one seeded ``realistic_gradient`` ``CALLS`` times with a
fresh compressor and records, for the first call and the last one (after the
stage controller has had ``CALLS`` observations to settle), the achieved
``nnz``, the normalised estimation quality ``k̂/k``, the stages the fit used
and the stages the controller had configured.  Values were captured before
the bucketed fit moved to block-wise streaming passes and are pinned
exactly: a refactor of either estimator must not move a single selection.
"""

import pytest

from repro.core import SIDCo
from repro.gradients import realistic_gradient
from repro.pipeline import CompressionPipeline

SIZE = 200_000
SEED = 2021
#: 16,384 fp32 elements per bucket: 12 full buckets plus a ragged one.
BUCKET_BYTES = 64 * 1024
CALLS = 10

#: (variant, bucketed, ratio) -> ((nnz, k̂/k, stages_used, stages_configured)
#: on call 1, the same on call ``CALLS``).
GOLDEN = {
    ("sidco-e", False, 0.1): ((15169, 0.75845, 1, 1), (16902, 0.8451, 2, 2)),
    ("sidco-e", False, 0.01): ((11528, 5.764, 1, 1), (1950, 0.975, 2, 2)),
    ("sidco-e", False, 0.001): ((8868, 44.34, 1, 1), (195, 0.975, 2, 2)),
    ("sidco-e", True, 0.1): ((15169, 0.75845, 1, 1), (16913, 0.84565, 2, 2)),
    ("sidco-e", True, 0.01): ((11509, 5.7545, 1, 1), (1945, 0.9725, 2, 2)),
    ("sidco-e", True, 0.001): ((8878, 44.39, 1, 1), (195, 0.975, 2, 2)),
    ("sidco-gp", False, 0.1): ((12493, 0.62465, 1, 1), (17248, 0.8624, 2, 2)),
    ("sidco-gp", False, 0.01): ((5729, 2.8645, 1, 1), (1961, 0.9805, 2, 2)),
    ("sidco-gp", False, 0.001): ((2524, 12.62, 1, 1), (198, 0.99, 2, 2)),
    ("sidco-gp", True, 0.1): ((12497, 0.62485, 1, 1), (17248, 0.8624, 2, 2)),
    ("sidco-gp", True, 0.01): ((5723, 2.8615, 1, 1), (1952, 0.976, 2, 2)),
    ("sidco-gp", True, 0.001): ((2518, 12.59, 1, 1), (197, 0.985, 2, 2)),
    ("sidco-p", False, 0.1): ((15331, 0.76655, 1, 1), (17948, 0.8974, 2, 2)),
    ("sidco-p", False, 0.01): ((7270, 3.635, 1, 1), (2000, 1.0, 2, 2)),
    ("sidco-p", False, 0.001): ((799, 3.995, 1, 1), (193, 0.965, 2, 2)),
    ("sidco-p", True, 0.1): ((15329, 0.76645, 1, 1), (17953, 0.89765, 2, 2)),
    ("sidco-p", True, 0.01): ((7284, 3.642, 1, 1), (1983, 0.9915, 2, 2)),
    ("sidco-p", True, 0.001): ((793, 3.965, 1, 1), (194, 0.97, 2, 2)),
}


def measure(variant: str, bucketed: bool, ratio: float) -> tuple[tuple, tuple]:
    gradient = realistic_gradient(SIZE, seed=SEED)
    compressor = SIDCo.from_variant(variant)
    if bucketed:
        compressor = CompressionPipeline(compressor, bucket_bytes=BUCKET_BYTES)
    rows = []
    for _ in range(CALLS):
        result = compressor.compress(gradient, ratio)
        rows.append(
            (
                result.sparse.nnz,
                result.estimation_quality,
                result.metadata["stages_used"],
                result.metadata["num_stages_configured"],
            )
        )
    return rows[0], rows[-1]


def _case_id(key) -> str:
    variant, bucketed, ratio = key
    return f"{variant}-{'bucketed' if bucketed else 'whole'}-{ratio}"


@pytest.mark.parametrize("key", sorted(GOLDEN), ids=_case_id)
def test_k_ratio_and_stage_counts_are_pinned(key):
    assert measure(*key) == GOLDEN[key]
