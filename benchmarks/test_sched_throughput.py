"""Scheduler throughput: schedules per second of the array scheduler.

Every bucketed iteration prices its buckets as one ``(bucket, phase)``
:class:`~repro.distributed.schedule.PhaseTable` and places them with
``simulate_iteration_arrays(..., table=...)``.  This
benchmark times that hot path, ``TimelineModel.schedule_iteration`` with
precomputed compression seconds, on the 128-node ``fat-tree-128`` preset
(1024 workers, 7 phase columns) with a ~96-bucket top-k pipeline result.

Two rows: the serial network lane and the cross-bucket per-link lanes.  The
cross-bucket row fits each bucket's rigid phase template to the earliest
start that clears every link, minimal up to the conflict check's
``1e-12 * max(1, |end|)`` tolerance: a lower bound swept over NumPy arrays
of forbidden start intervals, then the exact scalar bump loop from there.
Its bar does not depend on the machine: a cross-bucket call may take at most
``CROSS_BUCKET_BAR`` serial-lane calls (best of five alternating batches).  Results
land in ``BENCH_sched_throughput.json`` at the repo root.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_sched_throughput.py -v``.
Setting ``SIDCO_SMOKE_DIMENSION`` (e.g. ``500000``) shrinks the gradient for
a CI execution smoke: the schedule sanity checks still run, the artifact
write is skipped (timings at toy scale are all overhead).
"""

from __future__ import annotations

import math
import os
import time
from pathlib import Path

import pytest

from repro.compressors import create_compressor
from repro.distributed import (
    CollectiveModel,
    ScheduleArrays,
    SparseAggregateModel,
    TimelineModel,
    compute_time_for_overhead,
    get_topology,
)
from repro.gradients import realistic_gradient
from repro.perfmodel import GPU_V100
from repro.pipeline import CompressionPipeline

FULL_DIMENSION = 25_000_000
DIMENSION = int(os.environ.get("SIDCO_SMOKE_DIMENSION", FULL_DIMENSION))
SMOKE = DIMENSION < FULL_DIMENSION

PRESET = "fat-tree-128"
RATIO = 0.05
COMM_OVERHEAD = 0.94
#: 1 MiB buckets — ~96 buckets at the 25M scale, a realistic DDP sweep size.
BUCKET_BYTES = 2**20
#: Timed calls per batch, by ``cross_bucket``: the serial lane runs in about
#: half a millisecond, the cross-bucket lanes in about fifteen.
REPEATS = {False: 300, True: 10}
#: Most serial-lane calls one cross-bucket call may cost.  Eleven runs on
#: one x86 core measured 25-38x (136-179x before the swept lower bound, on
#: the same core); the bar leaves 1.5x headroom over the worst.
CROSS_BUCKET_BAR = 60.0

ARTIFACT_PATH = Path(__file__).resolve().parents[1] / "BENCH_sched_throughput.json"


def _timeline(*, cross_bucket: bool) -> TimelineModel:
    topology = get_topology(PRESET)
    collective = CollectiveModel(
        topology,
        allgather_algorithm="hierarchical",
        allgather_dedup=SparseAggregateModel("uniform"),
    )
    compute = compute_time_for_overhead(
        topology.inter_node, topology.num_workers, DIMENSION, COMM_OVERHEAD
    )
    return TimelineModel(
        collective=collective,
        device=GPU_V100,
        compute_seconds=compute,
        model_dimension=DIMENSION,
        overlap="comm+compress",
        cross_bucket_pipeline=cross_bucket,
    )


@pytest.fixture(scope="module")
def worker_results():
    gradient = realistic_gradient(DIMENSION, seed=0)
    pipeline = CompressionPipeline(
        create_compressor("topk"),
        bucket_bytes=BUCKET_BYTES if not SMOKE else max(64, DIMENSION * 4 // 16),
    )
    results = [pipeline.compress(gradient, RATIO)]
    assert results[0].metadata["num_buckets"] > 1
    return results


def _seconds_per_call(results, *, warmup: int = 3, batches: int = 5) -> dict[bool, float]:
    """Best batch mean per lane, keyed by ``cross_bucket``.

    The two lanes' batches alternate, so noise on a shared runner reaches
    both rows alike and their ratio, the bar, stays steady.
    """
    timelines = {cross: _timeline(cross_bucket=cross) for cross in REPEATS}
    for timeline in timelines.values():
        for _ in range(warmup):
            timeline.schedule_iteration(results, compression_seconds=0.01)
    best = dict.fromkeys(REPEATS, float("inf"))
    for _ in range(batches):
        for cross, timeline in timelines.items():
            start = time.perf_counter()
            for _ in range(REPEATS[cross]):
                timeline.schedule_iteration(results, compression_seconds=0.01)
            best[cross] = min(best[cross], (time.perf_counter() - start) / REPEATS[cross])
    return best


def test_benchmark_scenario_schedules(worker_results):
    serial = _timeline(cross_bucket=False).schedule_iteration(
        worker_results, compression_seconds=0.01
    )
    cross = _timeline(cross_bucket=True).schedule_iteration(
        worker_results, compression_seconds=0.01
    )
    for schedule in (serial, cross):
        assert isinstance(schedule, ScheduleArrays)
        assert schedule.num_buckets == worker_results[0].metadata["num_buckets"]
        assert len(schedule.phase_names) == 7
        assert math.isfinite(schedule.iteration_seconds)
        assert schedule.iteration_seconds <= schedule.serialized_seconds
    # Per-link lanes reprice nothing and can only start buckets earlier.
    assert cross.total_comm_seconds == pytest.approx(serial.total_comm_seconds)
    assert cross.iteration_seconds <= serial.iteration_seconds


@pytest.mark.skipif(SMOKE, reason="artifact records full-scale numbers only")
def test_emit_sched_throughput_artifact(worker_results, emit_artifact):
    topology = get_topology(PRESET)
    seconds = _seconds_per_call(worker_results)
    rows = [
        {
            "cross_bucket_pipeline": cross_bucket,
            "seconds_per_call": seconds[cross_bucket],
            "schedules_per_second": 1.0 / seconds[cross_bucket],
        }
        for cross_bucket in (False, True)
    ]
    written = emit_artifact(
        ARTIFACT_PATH,
        "sched_throughput",
        params={
            "dimension": DIMENSION,
            "ratio": RATIO,
            "bucket_bytes": BUCKET_BYTES,
            "num_buckets": worker_results[0].metadata["num_buckets"],
            "overlap": "comm+compress",
            "cross_bucket_bar": CROSS_BUCKET_BAR,
            "topology": {
                "name": topology.name,
                "num_nodes": topology.num_nodes,
                "devices_per_node": topology.devices_per_node,
                "num_workers": topology.num_workers,
                "num_levels": len(topology.levels),
            },
        },
        metrics={
            "serial_lane_schedules_per_second": rows[0]["schedules_per_second"],
            "cross_bucket_schedules_per_second": rows[1]["schedules_per_second"],
            "cross_bucket_over_serial_lane": (
                rows[1]["seconds_per_call"] / rows[0]["seconds_per_call"]
            ),
        },
        records=[
            {
                "workload": "sched_throughput",
                "config": {
                    "topology": topology.name,
                    "cross_bucket_pipeline": row["cross_bucket_pipeline"],
                },
                "metrics": {
                    "seconds_per_call": row["seconds_per_call"],
                    "schedules_per_second": row["schedules_per_second"],
                },
            }
            for row in rows
        ],
    )
    assert set(written) == {"schema", "schema_version", "benchmark", "params", "metrics", "records"}
    assert all(value > 0.0 for value in written["metrics"].values())
    assert written["metrics"]["cross_bucket_over_serial_lane"] <= CROSS_BUCKET_BAR
