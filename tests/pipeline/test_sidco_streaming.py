"""The block-wise streaming SIDCo fit against the whole-gradient oracle, bit for bit.

``sidco_reference.py`` keeps the whole-gradient implementation of
``estimate_multi_stage_bucketed`` and ``SIDCo.fit_all_buckets``.  The
streaming rewrite must reproduce every field exactly: indices, values,
per-bucket counts, thresholds, stages used, the op trace and the metadata.
Small cases shrink the block size so that multi-block layouts, buckets
larger than a block and blocks of many buckets all occur at test sizes.
"""

import contextlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SIDCo, StageControllerConfig
from repro.gradients import realistic_gradient
from repro.pipeline import BucketLayout, CompressionPipeline, estimate_multi_stage_bucketed
from repro.compressors import bucketed

from . import sidco_reference as reference

SIDS = ["exponential", "gamma", "gpareto"]


@contextlib.contextmanager
def block_elements(size: int):
    """Run with a different block size (the block plan is cached per layout)."""
    saved = bucketed.BLOCK_ELEMENTS
    bucketed.BLOCK_ELEMENTS = size
    bucketed.segments.cache_clear()
    try:
        yield
    finally:
        bucketed.BLOCK_ELEMENTS = saved
        bucketed.segments.cache_clear()


def same(a, b) -> bool:
    """Exact equality: arrays by dtype, shape and bytes; containers element-wise."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


FIT_FIELDS = (
    "indices", "values", "bucket_nnz", "bucket_thresholds", "target_ratio", "ops", "metadata"
)


def assert_same_fit(layout, gradient, sid, stages, ratio):
    config = StageControllerConfig(initial_stages=stages, max_stages=max(stages, 4))
    compressor = SIDCo(sid, controller=config)
    new = compressor.fit_all_buckets(gradient, layout, ratio)
    old = reference.fit_all_buckets(compressor, gradient, layout, ratio)
    if old is None:
        assert new is None
        return
    for name in FIT_FIELDS:
        assert same(getattr(new, name), getattr(old, name)), name


def assert_same_estimate(layout, gradient, sid, stages, ratio):
    magnitudes = np.abs(gradient)
    new = estimate_multi_stage_bucketed(
        gradient, layout, ratio, sid, stages, first_stage_ratio=0.25
    )
    old = reference.estimate_multi_stage_bucketed(
        magnitudes, layout, ratio, sid, stages, first_stage_ratio=0.25
    )
    assert same(new.thresholds, old.thresholds)
    assert same(new.stages_used, old.stages_used)
    assert same(new.ops, [old.ops])
    mask, counts = reference._bucket_mask_and_counts(magnitudes, layout, old.thresholds)
    assert same(new.indices, np.flatnonzero(mask))
    assert same(new.bucket_nnz, counts)
    assert new.has_tail.tolist() == [bool(magnitudes.any())]


@st.composite
def cases(draw):
    size = draw(st.integers(min_value=2, max_value=5000))
    kind = draw(st.sampled_from(["uniform", "layer-aware", "one-bucket"]))
    if kind == "uniform":
        layout = BucketLayout(total_size=size, bucket_size=draw(st.integers(1, size)))
    elif kind == "layer-aware":
        cuts = draw(st.lists(st.integers(1, size - 1), max_size=40, unique=True))
        layout = BucketLayout(
            total_size=size, bucket_size=size, boundaries=(0, *sorted(cuts))
        )
    else:
        layout = BucketLayout(total_size=size, bucket_size=size)
    gradient = realistic_gradient(size, seed=draw(st.integers(0, 2**20)))
    for _ in range(draw(st.integers(0, 3))):  # all-zero regions
        start = draw(st.integers(0, size - 1))
        gradient[start : start + draw(st.integers(1, size))] = 0.0
    return {
        "layout": layout,
        "gradient": gradient,
        "sid": draw(st.sampled_from(SIDS)),
        "stages": draw(st.integers(1, 4)),
        "ratio": draw(st.sampled_from([0.3, 0.1, 0.01, 0.001])),
        "block": draw(st.sampled_from([1, 50, 700, 1 << 18])),
    }


class TestMatchesWholeGradientOracle:
    @given(case=cases())
    @settings(max_examples=150, deadline=None)
    def test_fit_all_buckets_is_bit_for_bit(self, case):
        with block_elements(case["block"]):
            assert_same_fit(
                case["layout"], case["gradient"], case["sid"], case["stages"], case["ratio"]
            )

    @given(case=cases())
    @settings(max_examples=100, deadline=None)
    def test_estimator_and_selection_are_bit_for_bit(self, case):
        with block_elements(case["block"]):
            assert_same_estimate(
                case["layout"], case["gradient"], case["sid"], case["stages"], case["ratio"]
            )

    @pytest.mark.parametrize("sid", SIDS)
    @pytest.mark.parametrize("bucket_bytes", [256 * 1024, 2 * 1024 * 1024])
    def test_real_block_size_on_multi_block_gradient(self, sid, bucket_bytes):
        # 256 KiB buckets pack four to a block; 2 MiB buckets each exceed a block.
        gradient = realistic_gradient(700_001, seed=5)
        layout = BucketLayout.from_bytes(gradient.size, bucket_bytes)
        for stages in (1, 2, 3):
            assert_same_fit(layout, gradient, sid, stages, 0.001)

    @pytest.mark.parametrize("sid", SIDS)
    @pytest.mark.parametrize("block", [1, 300, 5000])
    def test_deep_stages_compact_the_carried_set(self, sid, block):
        # Stages three and four cut the carried set again after stage two.
        gradient = realistic_gradient(40_000, seed=13)
        uniform = BucketLayout(total_size=gradient.size, bucket_size=4096)
        layered = BucketLayout(
            total_size=gradient.size, bucket_size=9000, boundaries=(0, 9, 5000, 14_000)
        )
        with block_elements(block):
            for layout in (uniform, layered):
                for stages in (3, 4):
                    assert_same_fit(layout, gradient, sid, stages, 0.0005)
                    assert_same_estimate(layout, gradient, sid, stages, 0.0005)

    @pytest.mark.parametrize("sid", SIDS)
    def test_finite_magnitudes_whose_sums_overflow_are_fitted(self, sid):
        # Only a NaN or infinite element is rejected, not an overflowing sum.
        gradient = realistic_gradient(4096, seed=4)
        gradient[:3] = 1e308
        layout = BucketLayout(total_size=gradient.size, bucket_size=1024)
        with np.errstate(over="ignore", invalid="ignore"):
            for stages in (1, 2):
                assert_same_fit(layout, gradient, sid, stages, 0.01)

    @pytest.mark.parametrize("sid", SIDS)
    def test_settled_pipeline_matches_oracle(self, sid):
        # The workload shape: a pipeline whose controller has escalated.
        gradient = realistic_gradient(300_000, seed=8)
        pipeline = CompressionPipeline(SIDCo(sid), bucket_bytes=64 * 1024)
        for _ in range(10):
            pipeline.compress(gradient, 0.001)
        layout = pipeline.layout_for(gradient.size)
        compressor = pipeline.compressor
        assert compressor.num_stages > 1
        new = compressor.fit_all_buckets(gradient, layout, 0.001)
        old = reference.fit_all_buckets(compressor, gradient, layout, 0.001)
        for name in FIT_FIELDS:
            assert same(getattr(new, name), getattr(old, name)), name


class TestBlocks:
    @given(
        sizes=st.lists(st.integers(1, 3000), min_size=1, max_size=60),
        block=st.integers(1, 5000),
    )
    @settings(max_examples=60, deadline=None)
    def test_blocks_tile_the_buckets_greedily(self, sizes, block):
        starts = tuple(np.cumsum([0, *sizes[:-1]]).tolist())
        layout = BucketLayout(total_size=sum(sizes), bucket_size=max(sizes), boundaries=starts)
        with block_elements(block):
            plan = bucketed.segments(layout)
        plan_sizes, blocks = plan.sizes, plan.blocks
        assert plan_sizes.tolist() == sizes
        assert blocks[0][0] == 0 and blocks[0][2] == 0
        assert blocks[-1][1] == layout.total_size and blocks[-1][3] == len(sizes)
        for (start, stop, b0, b1, edges), following in zip(blocks, [*blocks[1:], None]):
            assert b1 > b0
            assert stop - start <= block or b1 - b0 == 1
            assert edges.tolist() == np.cumsum([0, *sizes[b0:b1]]).tolist()
            if following is not None:
                assert (following[0], following[2]) == (stop, b1)
                # Greedy: the next bucket would not have fitted.
                assert stop - start + sizes[b1] > block

    def test_no_allocation_as_large_as_the_gradient(self):
        gradient = realistic_gradient(2_000_000, seed=1)
        layout = BucketLayout.from_bytes(gradient.size, 256 * 1024)
        compressor = SIDCo("gpareto", controller=StageControllerConfig(initial_stages=3))
        tracemalloc.start()
        try:
            fit = compressor.fit_all_buckets(gradient, layout, 0.001)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fit.metadata["stages_used"] == 3
        # The whole-gradient fit held |g| plus a keep-mask: 1.125x the gradient.
        assert peak < gradient.nbytes
