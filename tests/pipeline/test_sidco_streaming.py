"""The block-wise streaming SIDCo fit against the whole-gradient oracle, bit for bit.

``sidco_reference.py`` keeps the whole-gradient implementation of
``estimate_multi_stage_bucketed`` and ``SIDCo.fit_all_buckets``.  The
streaming rewrite must reproduce every field exactly: indices, values,
per-bucket counts, thresholds, stages used, the op trace and the metadata.
Small cases shrink the block size so that multi-block layouts, buckets
larger than a block and blocks of many buckets all occur at test sizes, and
lower the floor above which stage one's blocks are shared with helper threads.
"""

import collections
import contextlib
import copy
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

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


@contextlib.contextmanager
def threaded_elements(size: int):
    """Run with a different floor for sharing stage one's blocks with helper threads."""
    saved = bucketed.THREADED_ELEMENTS
    bucketed.THREADED_ELEMENTS = size
    try:
        yield
    finally:
        bucketed.THREADED_ELEMENTS = saved


#: CPUs this process may run on; helpers need two or more.
CPUS = bucketed._cpus()
needs_two_cpus = pytest.mark.skipif(CPUS < 2, reason="one CPU: stage one runs on the caller alone")


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
        # Each name is a buffer of its own, kept under the same rule.
        mask = small.scratch("mask", bool, 112)
        assert mask.dtype == bool and mask.size == 1112
        assert np.shares_memory(mask, small.scratch("mask", bool, 112))
        assert not np.shares_memory(mask, small.scratch())
        assert not np.shares_memory(beyond.scratch("mask", bool), beyond.scratch("mask", bool))

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
    @pytest.mark.parametrize("floor", [bucketed.THREADED_ELEMENTS, 1], ids=["caller", "helpers"])
    def test_non_finite_last_block_raises_and_leaves_every_controller(self, sid, bad, stages, floor):
        # Earlier blocks are fitted and selected before the last one raises.
        # With (1, 1, 3), rows 0 and 1 keep a stage count apart from row 2's,
        # so their whole estimator pass completes first.  With helpers, the
        # thread that reads the last block raises, and the next fit on the
        # same pool gives the same bits.
        rows, layout, members = mixed_group(sid, stages)
        with block_elements(MIXED_BLOCK), threaded_elements(floor):
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
    @pytest.mark.parametrize("floor", [bucketed.THREADED_ELEMENTS, 1], ids=["caller", "helpers"])
    def test_stage_one_reads_each_element_once(self, monkeypatch, sid, stages, floor):
        reads = []

        def counting_abs_block(arr, start, stop, scratch):
            reads.append((start, stop))
            return bucketed.abs_block(arr, start, stop, scratch)

        monkeypatch.setattr(vectorized, "abs_block", counting_abs_block)
        rows, layout, members = mixed_group(sid, (stages,) * 3)
        with block_elements(MIXED_BLOCK), threaded_elements(floor):
            fits = members[0].fit_all_buckets(rows, layout, 0.001, group=members)
            blocks = bucketed.segments(layout, 3).blocks
        sizes = [stop - start for start, stop, *_ in blocks]
        assert max(sizes) > MIXED_BLOCK and any(s1 - s0 > 1 for *_, s0, s1, _ in blocks)
        assert max(fit.metadata["stages_used"] for fit in fits) == stages
        expected = [(start, stop) for start, stop, *_ in blocks]
        if floor == 1:  # threads take blocks in any order, each once
            assert collections.Counter(reads) == collections.Counter(expected)
        else:
            assert reads == expected


class TestThreadedStageOne:
    @pytest.mark.parametrize("sid", SIDS)
    @pytest.mark.parametrize("stages", [1, 3])
    def test_threaded_group_fit_is_bit_for_bit(self, sid, stages):
        rows, layout, members = mixed_group(sid, (stages,) * 3)
        with block_elements(MIXED_BLOCK), threaded_elements(1):
            for _ in range(3):  # the controllers move; every call is held
                twins = copy.deepcopy(members)  # the reference does not observe them
                fits = members[0].fit_all_buckets(rows, layout, 0.001, group=members)
                for fit, twin, row in zip(fits, twins, rows):
                    want = reference.fit_all_buckets(twin, row, layout, 0.001)
                    for name in FIT_FIELDS:
                        assert same(getattr(fit, name), getattr(want, name)), name

    @needs_two_cpus
    @pytest.mark.parametrize("sid", SIDS)
    def test_two_threads_share_a_fit_at_the_floor(self, monkeypatch, sid):
        # Two 4 MiB buckets, one block each: the caller and one helper each
        # read one, and neither reads on until both hold theirs.
        gradient = realistic_gradient(bucketed.THREADED_ELEMENTS, seed=6)
        layout = BucketLayout.from_bytes(gradient.size, 4 * 1024 * 1024)
        meet, readers = threading.Barrier(2, timeout=30), set()

        def meeting_abs_block(arr, start, stop, scratch):
            if threading.get_ident() not in readers:
                readers.add(threading.get_ident())
                meet.wait()
            return bucketed.abs_block(arr, start, stop, scratch)

        monkeypatch.setattr(vectorized, "abs_block", meeting_abs_block)
        assert len(bucketed.segments(layout).blocks) == 2
        assert_same_fit(layout, gradient, sid, 3, 0.001)
        assert len(readers) == 2

    def test_a_fit_below_the_floor_never_touches_the_pool(self, monkeypatch):
        def no_pool(helpers):
            raise AssertionError("the helper pool was asked for")

        monkeypatch.setattr(bucketed, "_helper_pool", no_pool)
        floor = bucketed.THREADED_ELEMENTS
        rows, layout, members = mixed_group("gpareto", (3, 3, 3))
        members[0].fit_all_buckets(rows, layout, 0.001, group=members)
        # One element short of the floor in many blocks; the floor in one block
        # (4 bytes per element).
        for size, bucket_bytes in ((floor - 1, 256 * 1024), (floor, 4 * floor)):
            gradient = realistic_gradient(size, seed=2)
            SIDCo("exponential").fit_all_buckets(
                gradient, BucketLayout.from_bytes(size, bucket_bytes), 0.001
            )
        if CPUS > 1:  # the floor in two blocks asks for it
            gradient = realistic_gradient(floor, seed=2)
            with pytest.raises(AssertionError, match="helper pool"):
                SIDCo("exponential").fit_all_buckets(
                    gradient, BucketLayout.from_bytes(floor, 2 * floor), 0.001
                )

    @needs_two_cpus
    @pytest.mark.parametrize("failing", ["caller", "helpers"])
    def test_a_failure_stops_every_thread_and_the_caller_waits(self, failing):
        # Eight 1 MiB buckets, one block each.  Every thread holds a block
        # when the failing side raises; the others finish theirs slowly and
        # must then get no other block.
        segs = bucketed.segments(BucketLayout.from_bytes(bucketed.THREADED_ELEMENTS, 1024 * 1024))
        threads = min(CPUS, bucketed.MAX_BLOCK_THREADS)
        caller, meet, finished = threading.get_ident(), threading.Barrier(threads, timeout=30), []

        def drain(blocks):
            for i in blocks:
                meet.wait()
                if (threading.get_ident() == caller) == (failing == "caller"):
                    raise ValueError(f"{failing} failed")
                time.sleep(0.2)
                finished.append(i)

        assert len(segs.blocks) == 8
        with pytest.raises(ValueError, match=f"{failing} failed"):
            bucketed.drain_blocks(segs, drain)
        assert len(finished) == (threads - 1 if failing == "caller" else 1)

    def test_blocks_are_handed_out_once_under_contention(self):
        # More threads than CPUs, switching every microsecond.
        count, blocks = 20_000, bucketed._Blocks(20_000)
        taken = [[] for _ in range(8)]
        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda got: got.extend(blocks), args=(got,)) for got in taken]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(saved)
        assert not any(thread.is_alive() for thread in threads)
        assert all(got == sorted(got) for got in taken)
        assert sorted(i for got in taken for i in got) == list(range(count))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_a_forked_child_fits_with_its_own_helpers(self):
        rows, layout, members = mixed_group("gamma", (3, 3, 3))
        with block_elements(MIXED_BLOCK), threaded_elements(1):
            members[0].fit_all_buckets(rows, layout, 0.001, group=members)
            twins = copy.deepcopy(members)
            expected = twins[0].fit_all_buckets(rows, layout, 0.001, group=twins)
            child = os.fork()
            if child == 0:  # pragma: no cover - runs in the child
                status = 1
                try:
                    fits = members[0].fit_all_buckets(rows, layout, 0.001, group=members)
                    fresh = CPUS < 2 or bucketed._pool[0] == os.getpid()
                    status = 0 if fresh and same(
                        [[getattr(f, n) for n in FIT_FIELDS] for f in fits],
                        [[getattr(f, n) for n in FIT_FIELDS] for f in expected],
                    ) else 1
                finally:
                    os._exit(status)
        deadline = time.monotonic() + 60
        while (done := os.waitpid(child, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        if done[0] == 0:
            os.kill(child, signal.SIGKILL)
            os.waitpid(child, 0)
            pytest.fail("the forked child's fit did not finish within 60 s")
        assert os.waitstatus_to_exitcode(done[1]) == 0

    def test_concurrent_futures_stays_unloaded_until_blocks_are_shared(self):
        # A fresh interpreter: pytest itself may have it loaded.
        src = Path(bucketed.__file__).resolve().parents[2]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run(
            [sys.executable, "-c", _UNSHARED_FIT], env=env, capture_output=True, text=True, check=True
        )
        assert run.stdout.split() == ["False"]


#: A below-the-floor fit in a fresh interpreter, then whether the pool's module loaded.
_UNSHARED_FIT = """
import sys
import repro
from repro.gradients import realistic_gradient
from repro.pipeline import BucketLayout, CompressionPipeline
from repro import create_compressor
gradient = realistic_gradient(100_000, seed=0)
CompressionPipeline(create_compressor("sidco-e"), bucket_bytes=64 * 1024).compress(gradient, 0.01)
print("concurrent.futures" in sys.modules)
"""


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
