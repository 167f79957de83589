"""The block-wise streaming SIDCo fit against the whole-gradient oracle, bit for bit.

``sidco_reference.py`` keeps the whole-gradient implementation of
``estimate_multi_stage_bucketed`` and ``SIDCo.fit_all_buckets``.  The
streaming rewrite must reproduce every field exactly: indices, values,
per-bucket counts, thresholds, stages used, the op trace and the metadata.
Small cases shrink the block size so that multi-block layouts, buckets
larger than a block and blocks of many buckets all occur at test sizes.
"""

import contextlib
import copy
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SIDCo, StageControllerConfig
from repro.gradients import realistic_gradient
from repro.pipeline import BucketLayout, CompressionPipeline, estimate_multi_stage_bucketed
from repro.compressors import bucketed
from repro.pipeline import vectorized

from . import sidco_reference as reference
from .compressor_reference import reference_compress

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
    twin = copy.deepcopy(compressor)  # the fit observes the controller
    new = compressor.fit_all_buckets(gradient, layout, ratio)
    old = reference.fit_all_buckets(twin, gradient, layout, ratio)
    if old is None:
        # No tail to fit: the scalar SIDCo's exact-k selection.
        expected = reference_compress(twin, gradient, ratio)
        assert same(new.indices, expected.sparse.indices)
        assert same(new.values, expected.sparse.values)
        assert new.ops == expected.ops
        assert new.metadata == {"sid": sid, "degenerate": True}
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
        twin = copy.deepcopy(compressor)
        new = compressor.fit_all_buckets(gradient, layout, 0.001)
        old = reference.fit_all_buckets(twin, gradient, layout, 0.001)
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

    def test_scratch_is_kept_per_thread_up_to_one_default_bucket(self):
        cap = bucketed.KEPT_SCRATCH_ELEMENTS
        small, large = (bucketed.segments(BucketLayout.from_bytes(n, 8 * n)) for n in (1000, cap))
        kept = small.scratch()
        assert kept.size == 1000
        assert np.shares_memory(large.scratch(), small.scratch())
        assert large.scratch().size == cap
        other = []
        thread = threading.Thread(target=lambda: other.append(small.scratch()))
        thread.start()
        thread.join()
        assert not np.shares_memory(other[0], small.scratch())
        beyond = bucketed.segments(BucketLayout.from_bytes(cap + 1, 8 * (cap + 1)))
        assert beyond.scratch().size == cap + 1
        assert not np.shares_memory(beyond.scratch(), beyond.scratch())
        assert not np.shares_memory(beyond.scratch(), small.scratch())

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


#: Block size of the mixed layout below.
MIXED_BLOCK = 4096


def mixed_group(sid, stages):
    """Three rows, a layout mixing many-bucket blocks with buckets larger than a block, one member per row."""
    rows = np.stack([realistic_gradient(30_000, seed=seed) for seed in (21, 22, 23)])
    # Four 500-element buckets share a block; the 16,000 and 12,000 ones exceed it.
    layout = BucketLayout(
        total_size=30_000, bucket_size=16_000, boundaries=(0, 500, 1000, 1500, 2000, 18_000)
    )
    members = [
        SIDCo(sid, controller=StageControllerConfig(initial_stages=n, max_stages=4, adaptation_interval=1))
        for n in stages
    ]
    return rows, layout, members


class TestSinglePass:
    @pytest.mark.parametrize("sid", SIDS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("stages", [(2, 2, 2), (1, 1, 3)], ids=["one-estimate", "two-estimates"])
    def test_non_finite_last_block_raises_and_leaves_every_controller(self, sid, bad, stages):
        # Earlier blocks are fitted and selected before the last one raises.
        # With (1, 1, 3), rows 0 and 1 keep a stage count apart from row 2's,
        # so their whole estimator pass completes first.
        rows, layout, members = mixed_group(sid, stages)
        with block_elements(MIXED_BLOCK):
            members[0].fit_all_buckets(rows, layout, 0.001, group=members)
            twins = copy.deepcopy(members)
            poisoned = rows.copy()
            poisoned[-1, 29_000] = bad
            with pytest.raises(ValueError, match="NaN or infinite"):
                members[0].fit_all_buckets(poisoned, layout, 0.001, group=members)
            fits = members[0].fit_all_buckets(rows, layout, 0.001, group=members)
            expected = twins[0].fit_all_buckets(rows, layout, 0.001, group=twins)
        for member, twin in zip(members, twins):
            assert vars(member.controller) == vars(twin.controller)
        for fit, want in zip(fits, expected):
            for name in FIT_FIELDS:
                assert same(getattr(fit, name), getattr(want, name)), name

    @pytest.mark.parametrize("sid", SIDS)
    @pytest.mark.parametrize("stages", [1, 3])
    def test_stage_one_reads_each_element_once(self, monkeypatch, sid, stages):
        reads = []

        def counting_abs_block(arr, start, stop, scratch):
            reads.append((start, stop))
            return bucketed.abs_block(arr, start, stop, scratch)

        monkeypatch.setattr(vectorized, "abs_block", counting_abs_block)
        rows, layout, members = mixed_group(sid, (stages,) * 3)
        with block_elements(MIXED_BLOCK):
            fits = members[0].fit_all_buckets(rows, layout, 0.001, group=members)
            blocks = bucketed.segments(layout, 3).blocks
        sizes = [stop - start for start, stop, *_ in blocks]
        assert max(sizes) > MIXED_BLOCK and any(s1 - s0 > 1 for *_, s0, s1, _ in blocks)
        assert max(fit.metadata["stages_used"] for fit in fits) == stages
        assert reads == [(start, stop) for start, stop, *_ in blocks]


class TestStageOneSelection:
    @given(
        n=st.integers(1, 5000),
        share=st.sampled_from(["zero", "twentieth", "above-twentieth", "tenth", "above-tenth", "any"]),
        seed=st.integers(0, 2**20),
    )
    @settings(max_examples=200, deadline=None)
    def test_padded_scan_equals_flatnonzero(self, n, share, seed):
        # Kept counts at and around the 5% and 10% lines the scan switches on.
        rng = np.random.default_rng(seed)
        mags = rng.permutation(n).astype(np.float64)
        count = {
            "zero": 0, "twentieth": n // 20, "above-twentieth": n // 20 + 1,
            "tenth": n // 10, "above-tenth": n // 10 + 1, "any": int(rng.integers(0, n + 1)),
        }[share]
        cutoff = float(n - count) if count else np.inf
        mask = np.empty(n + n // 9 + 1, dtype=bool)
        assert same(vectorized._flatnonzero_ge(mags, cutoff, mask), np.flatnonzero(mags >= cutoff))
        per_element = np.full(n, cutoff)
        assert same(vectorized._flatnonzero_ge(mags, per_element, mask), np.flatnonzero(mags >= cutoff))
