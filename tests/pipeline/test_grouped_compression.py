"""Grouped compression: one call over G workers equals G one-worker calls, bit for bit.

``compress_gradients`` clips, error-corrects and compresses every worker's row
of a ``(G, D)`` matrix in one call, and each compressor's ``fit_all_buckets``
fits all G workers' buckets at once.  The oracle is the per-worker loop it
replaced (``grouped_reference.py``) run on twin workers: every registry
compressor, bucketed (uniform and layer-aware layouts, with 1-element and
all-zero buckets) and unbucketed, must give each worker the same indices,
values, threshold, op trace and metadata, and leave the same state behind:
generator, SIDCo stage controller, hard-threshold scale and error-feedback
memory.  Workers start from different histories, so generators are both in
shared and in diverged states and SIDCo workers run different stage counts.
"""

from __future__ import annotations

import copy
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors import SIDCO_VARIANTS, available_compressors, create_compressor
from repro.core.stages import StageControllerConfig
from repro.distributed import DistributedTrainer, SimulationKnobs, TrainerConfig, WorkerChurn
from repro.distributed import trainer as trainer_module
from repro.distributed.worker import compress_gradients
from repro.nn import build_model
from repro.optim.error_feedback import ErrorFeedback
from repro.pipeline import CompressionPipeline
from repro.tensor.flatten import FlatSpec
from tests.synthetic import make_blobs_classification

from .grouped_reference import reference_compress_gradients

NAMES = available_compressors()


def same(a, b) -> bool:
    """Exact equality: arrays by dtype, shape and bytes; containers element-wise."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return repr(a) == repr(b)  # NaN thresholds compare equal, None stays None


def state(compressor) -> dict:
    """Everything a compressor carries from one call to the next."""
    inner = compressor.compressor if isinstance(compressor, CompressionPipeline) else compressor
    return {
        "rng": inner._rng.bit_generator.state if hasattr(inner, "_rng") else None,
        "scale": getattr(inner, "_scale", None),
        "controller": vars(inner.controller) if hasattr(inner, "controller") else None,
    }


def build(name: str, *, bucketed: bool, capacity: int, spec: FlatSpec | None, stages: int):
    kwargs = {}
    if name.startswith("sidco"):
        kwargs["controller"] = StageControllerConfig(initial_stages=stages, max_stages=max(stages, 4))
    compressor = create_compressor(name, **kwargs)
    if bucketed:
        compressor = CompressionPipeline(compressor, bucket_bytes=4 * capacity, flat_spec=spec)
    return compressor


def assert_same_results(got, expected):
    assert len(got) == len(expected)
    for new, old in zip(got, expected):
        assert same(new.sparse.indices, old.sparse.indices)
        assert same(new.sparse.values, old.sparse.values)
        assert new.sparse.dense_size == old.sparse.dense_size
        assert repr(new.threshold) == repr(old.threshold)
        assert new.target_ratio == old.target_ratio
        assert new.ops == old.ops
        assert same(new.metadata, old.metadata)


def assert_same_workers(got, expected):
    for new, old in zip(got, expected):
        assert same(state(new.compressor), state(old.compressor))
        if old.error_feedback is not None:
            zeros = np.zeros(old.error_feedback.dimension)
            assert same(new.error_feedback.correct(zeros), old.error_feedback.correct(zeros))


@st.composite
def groups(draw):
    """A group of G workers with their own histories, and the ``(G, D)`` matrix they compress."""
    name = draw(st.sampled_from(NAMES))
    sidco = name.startswith("sidco")
    slots = draw(st.lists(st.integers(1, 60), min_size=1, max_size=12))
    d = sum(slots)
    capacity = draw(st.integers(1, 80))
    layer_aware = draw(st.booleans())
    spec = FlatSpec.from_named_shapes({f"p{i}": (n,) for i, n in enumerate(slots)}) if layer_aware else None
    bucketed = draw(st.booleans())
    g = draw(st.integers(1, 6))
    ratio = draw(st.sampled_from([1.0 / d, 0.01, 0.1, 0.5, 1.0]))
    if sidco and ratio >= 1.0:  # SIDCo rejects ratio 1.0 by design
        ratio = 0.5
    seed = draw(st.integers(0, 2**16))
    histories = draw(st.lists(st.integers(0, 3), min_size=g, max_size=g))
    stages = draw(st.lists(st.integers(1, 3), min_size=g, max_size=g))
    clip = draw(st.sampled_from([None, 0.5, 3.0]))
    error_feedback = draw(st.booleans())
    zero_rows = draw(st.lists(st.sampled_from([False] * 4 + [True]), min_size=g, max_size=g))
    ties = draw(st.booleans())

    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((g, d)) * rng.lognormal(size=(g, 1))
    if ties:
        rows = np.round(rows, 1)
    for row, zero in zip(rows, zero_rows):
        lo, hi = sorted(rng.integers(0, d + 1, size=2))
        row[lo:hi] = 0.0  # an all-zero stretch: whole buckets on small layouts
        if zero:
            row[:] = 0.0
    workers = []
    for history, stage in zip(histories, stages):
        compressor = build(name, bucketed=bucketed, capacity=capacity, spec=spec, stages=stage)
        for _ in range(history):
            compressor.compress(rng.standard_normal(d), ratio)
        memory = ErrorFeedback(d) if error_feedback else None
        if memory is not None and history:
            memory.update(rng.standard_normal(d), compressor.compress(rng.standard_normal(d), ratio).sparse)
        workers.append(SimpleNamespace(clip_norm=clip, error_feedback=memory, compressor=compressor))
    return workers, rows, ratio


@given(case=groups())
@settings(max_examples=400, deadline=None)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # hard_threshold at 1/n
def test_grouped_call_equals_one_call_per_worker(case):
    workers, rows, ratio = case
    twins, corrected, ref_corrected = copy.deepcopy(workers), rows.copy(), rows.copy()
    results, norms = compress_gradients(workers, corrected, ratio)
    ref_results, ref_norms = reference_compress_gradients(twins, ref_corrected, ratio)
    assert_same_results(results, ref_results)
    assert same(corrected, ref_corrected)
    assert norms == ref_norms
    assert_same_workers(workers, twins)


@pytest.mark.parametrize("members", [None, 1, 2, 4], ids=["default", "one", "two", "four"])
@pytest.mark.parametrize("bucketed", [False, True], ids=["whole", "bucketed"])
@pytest.mark.parametrize("name", NAMES)
def test_group_must_hold_one_compressor_per_row(name, bucketed, members):
    """Three rows with a group too short (the default ``[self]`` too) or too long raise."""
    compressor = build(name, bucketed=bucketed, capacity=16, spec=None, stages=1)
    group = None if members is None else [copy.deepcopy(compressor) for _ in range(members)]
    rows = np.random.default_rng(0).standard_normal((3, 64))
    with pytest.raises(ValueError, match="3 gradients for a group of"):
        compressor.compress_group(rows, 0.1, group)


def _group(name, histories, stages=None, d=3962):
    """Workers on ``train-cnn-faults``' gradient size and bucket count (59 buckets of 67).

    Worker i first compresses ``histories[i]`` gradients of its own.
    """
    rng = np.random.default_rng(0)
    workers = []
    for history, stage in zip(histories, stages or [1] * len(histories)):
        compressor = build(name, bucketed=True, capacity=67, spec=None, stages=stage)
        for _ in range(history):
            compressor.compress(rng.standard_normal(d), 0.01)
        workers.append(SimpleNamespace(clip_norm=None, error_feedback=ErrorFeedback(d), compressor=compressor))
    return workers, rng.standard_normal((len(histories), d))


@pytest.mark.parametrize("name", ["dgc", "randomk"])
@pytest.mark.parametrize(
    "histories", [[0] * 6, [0, 1, 0, 2, 1, 0], [2, 0, 0]], ids=["shared", "diverged", "lagging-first"]
)
def test_generators_draw_once_per_state(name, histories):
    workers, rows = _group(name, histories)
    twins = copy.deepcopy(workers)
    for _ in range(3):  # the adopted states keep matching on later calls
        assert_same_results(
            compress_gradients(workers, rows.copy(), 0.001)[0],
            reference_compress_gradients(twins, rows.copy(), 0.001)[0],
        )
        assert_same_workers(workers, twins)
    states = {repr(state(w.compressor)["rng"]) for w in workers}
    assert len(states) == len(set(histories))


@pytest.mark.parametrize("name", SIDCO_VARIANTS)
def test_sidco_fits_each_stage_count_once(name):
    workers, rows = _group(name, [0] * 5, stages=[1, 3, 2, 3, 1])
    twins = copy.deepcopy(workers)
    for _ in range(7):  # past a controller window
        assert_same_results(
            compress_gradients(workers, rows.copy(), 0.001)[0],
            reference_compress_gradients(twins, rows.copy(), 0.001)[0],
        )
        assert_same_workers(workers, twins)
    assert {w.compressor.compressor.num_stages for w in workers} == {2, 3, 4}


@pytest.mark.parametrize("name", ["dgc", *SIDCO_VARIANTS, "hard_threshold", "randomk"])
def test_trainer_records_equal_the_per_worker_loop(name, monkeypatch):
    """The whole trainer, under worker churn and warm-up, against the per-worker loop."""

    def run():
        dataset = make_blobs_classification(num_examples=96, num_features=8, num_classes=3, seed=0)
        model = build_model("mlp", input_dim=8, hidden_dims=(16,), num_classes=3, seed=0)
        config = TrainerConfig(
            num_workers=6, batch_size=4, iterations=8, ratio=0.05, warmup_iterations=2, clip_norm=1.0,
            knobs=SimulationKnobs(bucket_bytes=64),
            fault_injectors=(WorkerChurn(leave_probability=0.3, rejoin_probability=0.5, seed=1),),
        )
        return DistributedTrainer(model, dataset, name, config).run(evaluate_on=dataset)

    grouped = run()
    monkeypatch.setattr(trainer_module, "compress_gradients", reference_compress_gradients)
    per_worker = run()
    assert grouped.metrics.records == per_worker.metrics.records
    assert grouped.final_evaluation == per_worker.final_evaluation
    assert len({r.participating_workers for r in grouped.metrics.records}) > 1
