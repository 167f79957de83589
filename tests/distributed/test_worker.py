"""Tests for the simulated worker."""

import copy

import numpy as np
import pytest

from repro.compressors import create_compressor
from repro.data import BatchIterator, make_language_modeling, shard_dataset
from repro.distributed.worker import Worker, compress_gradients, compute_gradients
from repro.nn import build_model
from tests.synthetic import make_blobs_classification


def _worker(compressor="topk", use_ec=True, clip=None, seed=0):
    dataset = make_blobs_classification(num_examples=64, num_features=8, num_classes=3, seed=seed)
    model = build_model("mlp", input_dim=8, hidden_dims=(16,), num_classes=3, seed=seed)
    batches = BatchIterator(dataset, batch_size=8, seed=seed)
    return Worker(0, model, batches, create_compressor(compressor), use_error_feedback=use_ec, clip_norm=clip)


def _step(worker, ratio):
    """One worker's gradient pass and compression: ``(loss, flat gradient, result, norm)``."""
    [(_, loss, flat)] = compute_gradients([worker])
    rows = flat[None].copy()
    [result], [norm] = compress_gradients([worker], rows, ratio)
    return loss, flat, result, norm


def _residual(worker):
    return worker.error_feedback.correct(np.zeros(worker.flat_spec.total_size))


class TestWorker:
    def test_gradient_shape(self):
        worker = _worker()
        loss, flat, _, _ = _step(worker, 0.1)
        assert flat.shape == (worker.flat_spec.total_size,)
        assert np.isfinite(loss)
        assert np.any(flat != 0.0)

    def test_compression_result(self):
        worker = _worker()
        _, _, result, norm = _step(worker, 0.1)
        assert result.target_ratio == 0.1
        assert result.sparse.dense_size == worker.flat_spec.total_size
        assert norm > 0.0

    def test_error_feedback_memory_updated(self):
        worker = _worker(compressor="topk", use_ec=True)
        _step(worker, 0.01)
        assert np.count_nonzero(_residual(worker)) > 0

    def test_no_error_feedback_option(self):
        worker = _worker(use_ec=False)
        assert worker.error_feedback is None
        _, _, result, _ = _step(worker, 0.1)
        assert result.achieved_k >= 1

    def test_clip_norm_bounds_gradient(self):
        worker = _worker(clip=0.001)
        _, _, _, norm = _step(worker, 1.0)
        assert norm <= 0.001 + 1e-9

    def test_workers_on_different_shards_get_different_batches(self):
        dataset = make_blobs_classification(num_examples=64, num_features=8, num_classes=3, seed=0)
        shards = shard_dataset(dataset, 2, seed=0)
        model = build_model("mlp", input_dim=8, hidden_dims=(16,), num_classes=3, seed=0)
        w0 = Worker(0, model, BatchIterator(shards[0], 8, seed=1), create_compressor("topk"))
        w1 = Worker(1, model, BatchIterator(shards[1], 8, seed=2), create_compressor("topk"))
        [(_, _, g0)] = compute_gradients([w0])
        [(_, _, g1)] = compute_gradients([w1])
        assert not np.allclose(g0, g1)


def _lstm_workers(num_workers=7, batch_size=4, num_sequences=45, model=None):
    """Workers sharing one LSTM-LM whose shards end epochs at different steps (ragged batches)."""
    dataset = make_language_modeling(num_sequences=num_sequences, seq_len=6, vocab_size=13, seed=0)
    model = model or build_model("lstm_lm", vocab_size=13, embedding_dim=4, hidden_size=6, num_layers=2, seed=0)
    shards = shard_dataset(dataset, num_workers, seed=0)
    spec = None
    workers = []
    for i, shard in enumerate(shards):
        worker = Worker(i, model, BatchIterator(shard, batch_size, seed=i), create_compressor("topk"), flat_spec=spec)
        spec = worker.flat_spec
        workers.append(worker)
    return workers


class TestComputeGradients:
    def test_groups_equal_groups_of_one_bit_for_bit(self):
        grouped = _lstm_workers()
        single = _lstm_workers()
        single[0].model.worker_group = 1
        assert grouped[0].model.worker_group == 8
        shapes = set()
        for iteration in range(6):
            active = grouped if iteration % 2 == 0 else grouped[1:6]
            mirror = single if iteration % 2 == 0 else single[1:6]
            got = list(compute_gradients(active, iteration=iteration))
            ref = list(compute_gradients(mirror, iteration=iteration))
            assert [w.worker_id for w, _, _ in got] == [w.worker_id for w in active]
            assert [loss for _, loss, _ in got] == [loss for _, loss, _ in ref]
            for (_, _, row), (_, _, ref_row) in zip(got, ref):
                assert row.shape == ref_row.shape == (grouped[0].flat_spec.total_size,)
                assert np.array_equal(row, ref_row)
            shapes.update(w.batches.batch_size for w in active)
            shapes.update(len(w.batches.dataset) % w.batches.batch_size for w in active)
        assert len(shapes) > 1  # the shards really give ragged batches

    def test_model_left_unstacked(self):
        workers = _lstm_workers()
        list(compute_gradients(workers))
        model = workers[0].model
        assert model.workers is None
        assert all(p.grad.shape == p.shape for p in model.parameters())

    def test_workers_must_share_a_model(self):
        first = _lstm_workers()
        second = _lstm_workers()
        with pytest.raises(ValueError, match="share one model"):
            list(compute_gradients([first[0], second[1]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("model_name", ["lstm_lm", "mlp"])
    def test_non_finite_gradient_raises(self, bad, model_name):
        if model_name == "lstm_lm":
            workers = _lstm_workers()
            param = workers[0].model.projection.weight
        else:
            workers = [_worker()]
            param = workers[0].model.named_parameters()["net.0.weight"]
        param.data[0, 0] = bad
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(
            ValueError, match=r"worker 0 .*non-finite.* at iteration 3"
        ):
            list(compute_gradients(workers, iteration=3))

    def test_non_finite_gradient_of_a_later_worker_is_named(self):
        # Every embedding row outside worker 0's next batch overflows, so
        # worker 0 stays finite and the first worker that reads one is named.
        workers = _lstm_workers()
        upcoming = [copy.deepcopy(w.batches).next_batch()[0] for w in workers]
        outside = np.setdiff1d(np.arange(13), upcoming[0])
        first_bad = next(i for i, ids in enumerate(upcoming) if np.isin(ids, outside).any())
        assert first_bad > 0
        workers[0].model.embedding.weight.data[outside] = np.inf
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(
            ValueError, match=f"worker {first_bad} .* at iteration 0"
        ):
            list(compute_gradients(workers, iteration=0))

    def test_one_worker_rejects_a_nan_gradient(self):
        worker = _worker()
        worker.model.named_parameters()["net.0.bias"].data[0] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="worker 0"):
            _step(worker, 0.1)
