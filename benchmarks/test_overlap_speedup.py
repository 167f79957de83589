"""Overlap-aware iteration schedule: simulated speedup over serialised pricing.

The event-driven schedule simulator overlaps bucket *i*'s all-gather with
bucket *i+1*'s compression (``overlap="comm"``) and additionally starts
compressing each bucket at its gradient-ready point during backprop
(``overlap="comm+compress"``).  This module demonstrates the acceptance bar on
a 25M-element gradient (Figure 16's large-tensor class):

* simulated overlapped iteration time <= serialised iteration time for every
  policy, strictly lower for the overlap policies on a multi-bucket workload,
* ``overlap="none"`` reproduces the closed-form component sum exactly.

It also emits a ``BENCH_overlap.json`` artifact at the repository root with
the per-policy iteration times and overlap savings, so the benchmark
trajectory of the overlap refactor is recorded alongside the code.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_overlap_speedup.py -v``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.compressors import create_compressor
from repro.distributed import OVERLAP_POLICIES, TimelineModel, compute_time_for_overhead
from repro.distributed.network import CLUSTER_ETHERNET_10G
from repro.gradients import realistic_gradient
from repro.perfmodel import GPU_V100
from repro.pipeline import CompressionPipeline

#: The acceptance-scale gradient (matches the pipeline-throughput benchmark).
DIMENSION = 25_000_000
RATIO = 0.001
NUM_WORKERS = 8
#: ResNet-50-like communication-overhead fraction (Table 1).
COMM_OVERHEAD = 0.72

ARTIFACT_PATH = Path(__file__).resolve().parents[1] / "BENCH_overlap.json"


@pytest.fixture(scope="module")
def timeline():
    compute = compute_time_for_overhead(
        CLUSTER_ETHERNET_10G, NUM_WORKERS, DIMENSION, COMM_OVERHEAD
    )
    return TimelineModel(
        network=CLUSTER_ETHERNET_10G,
        device=GPU_V100,
        compute_seconds=compute,
        num_workers=NUM_WORKERS,
        model_dimension=DIMENSION,
    )


@pytest.fixture(scope="module")
def worker_results():
    gradient = realistic_gradient(DIMENSION, seed=0)
    pipeline = CompressionPipeline(create_compressor("sidco-e"))
    # Two warm-up calls bring the stage controller to steady state.
    for _ in range(2):
        result = pipeline.compress(gradient, RATIO)
    return [result]


def test_overlapped_iteration_never_slower_than_serialized(timeline, worker_results):
    assert worker_results[0].metadata["num_buckets"] > 1
    timings = {
        policy: timeline.compressed_iteration(worker_results, overlap=policy)
        for policy in OVERLAP_POLICIES
    }
    serialized = timings["none"].total
    assert timings["none"].total == pytest.approx(timings["none"].serialized)
    for policy in ("comm", "comm+compress"):
        assert timings[policy].total <= serialized
        assert timings[policy].total < serialized, (
            f"{policy} must strictly beat serialised pricing on a multi-bucket workload"
        )
        assert timings[policy].serialized == pytest.approx(serialized)
    assert timings["comm+compress"].total <= timings["comm"].total


def test_emit_overlap_bench_artifact(timeline, worker_results, emit_artifact):
    result = worker_results[0]
    timings = {
        policy: timeline.compressed_iteration(worker_results, overlap=policy)
        for policy in OVERLAP_POLICIES
    }
    serialized = timings["none"].total
    policies = {
        policy: {
            "iteration_seconds": timing.total,
            "serialized_seconds": timing.serialized,
            "overlap_saving": timing.overlap_saving,
            "speedup_vs_serialized": serialized / timing.total if timing.total else 1.0,
        }
        for policy, timing in timings.items()
    }
    written = emit_artifact(
        ARTIFACT_PATH,
        "overlap_speedup",
        params={
            "dimension": DIMENSION,
            "ratio": RATIO,
            "num_workers": NUM_WORKERS,
            "comm_overhead": COMM_OVERHEAD,
            "compressor": result.metadata.get("sid", "sidco-e"),
        },
        metrics={
            "comm_compress_speedup_vs_serialized": policies["comm+compress"][
                "speedup_vs_serialized"
            ],
        },
        records=[
            {"workload": "overlap_speedup", "config": {"overlap": policy}, "metrics": metrics}
            for policy, metrics in policies.items()
        ],
    )
    by_policy = {r["config"]["overlap"]: r["metrics"] for r in written["records"]}
    assert by_policy["comm+compress"]["iteration_seconds"] <= serialized
