"""Tests for training metrics."""

import dataclasses

import numpy as np
import pytest

from repro.distributed import IterationRecord, TrainingMetrics


def _record(i, loss=1.0, ratio=0.01, target=0.01, it_time=0.1, wall=None, samples=32):
    return IterationRecord(
        iteration=i,
        loss=loss,
        achieved_ratio=ratio,
        target_ratio=target,
        threshold=0.5,
        compute_time=0.04,
        compression_time=0.01,
        communication_time=0.05,
        iteration_time=it_time,
        wall_time=wall if wall is not None else (i + 1) * it_time,
        samples=samples,
        learning_rate=0.1,
    )


def _metrics(n=20, **kwargs):
    metrics = TrainingMetrics()
    for i in range(n):
        metrics.append(_record(i, **kwargs))
    return metrics


class TestSeries:
    def test_loss_curve_and_walltime(self):
        metrics = _metrics(5)
        iterations, losses = metrics.loss_curve()
        assert len(iterations) == 5
        assert metrics.wall_times[-1] == pytest.approx(0.5)
        assert np.array_equal(losses, metrics.losses)

    def test_running_average_ratio(self):
        metrics = TrainingMetrics()
        for i in range(10):
            metrics.append(_record(i, ratio=0.01 if i < 5 else 0.03))
        smoothed = metrics.running_average_ratio(window=5)
        assert smoothed[0] == pytest.approx(0.01)
        assert smoothed[-1] == pytest.approx(0.03)

    def test_running_average_invalid_window(self):
        with pytest.raises(ValueError):
            _metrics(5).running_average_ratio(0)

    def test_empty_metrics_safe(self):
        metrics = TrainingMetrics()
        assert len(metrics.records) == 0
        assert metrics.total_time == 0.0
        assert metrics.average_throughput() == 0.0
        assert metrics.time_to_loss(1.0) is None
        with pytest.raises(ValueError):
            _ = metrics.final_loss


class TestScalars:
    def test_throughput(self):
        metrics = _metrics(10, it_time=0.5, samples=64)
        assert metrics.average_throughput() == pytest.approx(64 / 0.5)

    def test_final_loss_uses_tail_average(self):
        metrics = TrainingMetrics()
        for i in range(20):
            metrics.append(_record(i, loss=10.0 - 0.5 * i))
        assert metrics.final_loss < 2.0

    def test_time_to_loss_found(self):
        metrics = TrainingMetrics()
        for i in range(20):
            metrics.append(_record(i, loss=10.0 - 0.5 * i))
        t = metrics.time_to_loss(5.0)
        assert t is not None
        assert 0.0 < t < metrics.total_time

    def test_time_to_loss_not_reached(self):
        metrics = _metrics(10, loss=5.0)
        assert metrics.time_to_loss(0.1) is None

    def test_estimation_quality_mean_and_ci(self):
        metrics = TrainingMetrics()
        for i in range(50):
            metrics.append(_record(i, ratio=0.011 if i % 2 else 0.009, target=0.01))
        mean, (low, high) = metrics.estimation_quality()
        assert mean == pytest.approx(1.0, abs=0.01)
        assert low <= mean <= high

    def test_component_breakdown(self):
        metrics = _metrics(10)
        breakdown = metrics.component_breakdown()
        assert breakdown["compute"] == pytest.approx(0.4)
        assert breakdown["communication"] == pytest.approx(0.5)


class TestOverlapSummary:
    def test_serialized_defaults_to_iteration_time(self):
        # Records without an explicit serialized_time (overlap="none" runs)
        # count their iteration time as the serialised time.
        metrics = _metrics(10, it_time=0.1)
        assert metrics.serialized_total_time == pytest.approx(metrics.total_time)
        summary = metrics.overlap_summary()
        assert summary["overlap_saving"] == pytest.approx(0.0)

    def test_overlap_saving_from_serialized_times(self):
        metrics = TrainingMetrics()
        for i in range(10):
            record = _record(i, it_time=0.08)
            metrics.append(
                IterationRecord(**{**record.__dict__, "serialized_time": 0.1})
            )
        summary = metrics.overlap_summary()
        assert summary["overlapped_seconds"] == pytest.approx(0.8)
        assert summary["serialized_seconds"] == pytest.approx(1.0)
        assert summary["overlap_saving"] == pytest.approx(0.2)

    def test_empty_metrics_safe_overlap(self):
        summary = TrainingMetrics().overlap_summary()
        assert summary == {
            "overlapped_seconds": 0.0,
            "serialized_seconds": 0.0,
            "overlap_saving": 0.0,
        }


class TestMeanDedupRatio:
    def test_averages_compressed_iterations_only(self):
        metrics = TrainingMetrics()
        for i, dedup in enumerate((1.5, 2.5)):
            metrics.append(dataclasses.replace(_record(i), dedup_ratio=dedup))
        metrics.append(_record(2, ratio=1.0, target=1.0))  # dense baseline iteration
        assert metrics.mean_dedup_ratio() == pytest.approx(2.0)

    def test_every_record_uncompressed_pins_one(self):
        # Regression: filtering to target_ratio < 1.0 can leave nothing to
        # average (a baseline/warm-up-only run).  The contract is a clean,
        # finite 1.0 — never a crash or NaN from an empty mean.
        metrics = _metrics(n=5, ratio=1.0, target=1.0)
        assert metrics.mean_dedup_ratio() == 1.0
        assert np.isfinite(metrics.mean_dedup_ratio())

    def test_empty_run_pins_one(self):
        assert TrainingMetrics().mean_dedup_ratio() == 1.0
