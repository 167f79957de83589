"""Cross-bucket network pipelining on per-link lanes vs the PR-4 scheduler.

PR 4's iteration scheduler serialises buckets on one network lane as whole
occupancies: while bucket *i*'s inter-node exchange crawls over the slow
Ethernet, the fast intra-node fabric sits idle even though bucket *i+1*'s
intra-node gather could already be running.  ``cross_bucket_pipeline=True``
splits the network into per-link lanes and slides each bucket's phase template
to the earliest time it fits on every fabric it uses.

Two comparisons are reported, both against the **PR-4 scheduler** (serial
network lane) pricing the serial hierarchical all-gather:

* ``scheduler_only_speedup`` — identical collective pricing, only the
  scheduler toggled.  The win equals the intra-phase share of each bucket's
  collective: large on ``torus-2d`` (the row/column fabrics are comparable,
  ~1.5x), structurally modest on ``ethernet-4x8`` (InfiniBand is ~17x the
  effective TCP rate, so intra phases are <10% of a bucket, ~1.09x).
* ``full_stack_speedup`` — the tuned cross-bucket stack (per-link lanes +
  chunk-placed phases + uniform sparse dedup) vs the same PR-4 baseline,
  following the precedent of ``BENCH_dedup.json`` (which compared the tuned
  PR-4 stack against the PR-3 serial one).  ``vs_pr4_tuned_speedup``
  isolates what the new scheduler adds on top of the tuned PR-4 stack.

Acceptance bar: full-stack >= 1.10x on ``ethernet-4x8`` at the paper's
densest ratio (0.1), scheduler-only >= 1.3x on ``torus-2d``, and the
cross-bucket schedule never slower than the serial lane anywhere.  Results
land in ``BENCH_cross_bucket.json`` at the repo root.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_cross_bucket_speedup.py -v``.
Setting ``SIDCO_SMOKE_DIMENSION`` (e.g. ``500000``) shrinks the gradient for a
CI execution smoke: the schedule invariants still run, the speedup bars and
the artifact write are skipped (they are calibrated to the full 25M scale).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.compressors import create_compressor
from repro.distributed import (
    CollectiveModel,
    SparseAggregateModel,
    TimelineModel,
    compute_time_for_overhead,
    get_topology,
)
from repro.gradients import realistic_gradient
from repro.perfmodel import GPU_V100
from repro.pipeline import CompressionPipeline

#: The acceptance-scale model (matches the overlap/topology/dedup benchmarks).
FULL_DIMENSION = 25_000_000
DIMENSION = int(os.environ.get("SIDCO_SMOKE_DIMENSION", FULL_DIMENSION))
SMOKE = DIMENSION < FULL_DIMENSION
#: Paper compression ratios the scheduler is evaluated at; the acceptance
#: bars are pinned at the densest (0.1), where communication dominates.
RATIOS = (0.1, 0.05, 0.01)
ACCEPTANCE_RATIO = 0.1
#: Table 1's most communication-bound row (LSTM-PTB, 94% comm overhead) —
#: the workload the paper's overlap story targets.
COMM_OVERHEAD = 0.94
PIPELINE_CHUNKS = 8

ARTIFACT_PATH = Path(__file__).resolve().parents[1] / "BENCH_cross_bucket.json"

SCENARIOS = ("ethernet-4x8", "torus-2d")


def _serial_model(preset: str) -> CollectiveModel:
    """The PR-4 baseline pricing: serial hierarchical phases, knobs off."""
    return CollectiveModel(get_topology(preset), allgather_algorithm="hierarchical")


def _tuned_model(preset: str) -> CollectiveModel:
    """The tuned pricing: chunk-placed phases + uniform sparse dedup."""
    return CollectiveModel(
        get_topology(preset),
        allgather_algorithm="hierarchical",
        pipeline_chunks=PIPELINE_CHUNKS,
        allgather_dedup=SparseAggregateModel("uniform"),
    )


def _timeline(collective: CollectiveModel, *, cross_bucket: bool) -> TimelineModel:
    topology = collective.topology
    compute = compute_time_for_overhead(
        topology.inter_node, topology.num_workers, DIMENSION, COMM_OVERHEAD
    )
    return TimelineModel(
        network=topology.inter_node,
        device=GPU_V100,
        compute_seconds=compute,
        num_workers=topology.num_workers,
        model_dimension=DIMENSION,
        collective=collective,
        cross_bucket_pipeline=cross_bucket,
    )


@pytest.fixture(scope="module")
def worker_results():
    gradient = realistic_gradient(DIMENSION, seed=0)
    # The default 4 MiB DDP budget at full scale; a smoke-sized gradient keeps
    # the same ~16-bucket structure so there is still a pipeline to schedule.
    pipeline = CompressionPipeline(
        create_compressor("topk"),
        bucket_bytes=4 * 2**20 if not SMOKE else max(64, DIMENSION * 4 // 16),
    )
    results = {ratio: [pipeline.compress(gradient, ratio)] for ratio in RATIOS}
    assert results[ACCEPTANCE_RATIO][0].metadata["num_buckets"] > 1
    return results


def _timings(preset: str, results, *, tuned: bool):
    model = _tuned_model(preset) if tuned else _serial_model(preset)
    serial_lane = _timeline(model, cross_bucket=False).compressed_iteration(
        results, overlap="comm"
    )
    cross = _timeline(model, cross_bucket=True).compressed_iteration(
        results, overlap="comm"
    )
    return serial_lane, cross


@pytest.mark.parametrize("preset", SCENARIOS)
@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("tuned", (False, True))
def test_cross_bucket_never_slower(preset, ratio, tuned, worker_results):
    serial_lane, cross = _timings(preset, worker_results[ratio], tuned=tuned)
    assert cross.total <= serial_lane.total * (1.0 + 1e-9)
    assert cross.cross_bucket_pipeline and not serial_lane.cross_bucket_pipeline
    # Scheduling never reprices the work, it only packs it tighter.
    assert cross.communication == serial_lane.communication
    assert cross.schedule.total_comm_seconds == pytest.approx(
        serial_lane.schedule.total_comm_seconds
    )


@pytest.mark.parametrize("preset", SCENARIOS)
def test_per_link_lanes_raise_utilization(preset, worker_results):
    serial_lane, cross = _timings(preset, worker_results[ACCEPTANCE_RATIO], tuned=False)
    serial_util = serial_lane.schedule.link_utilization()
    cross_util = cross.schedule.link_utilization()
    intra = get_topology(preset).intra_node.name
    assert cross_util[intra]["utilization"] >= serial_util[intra]["utilization"]
    # Same busy seconds per fabric — the window shrank, not the work.
    for link in cross_util:
        assert cross_util[link]["busy_seconds"] == pytest.approx(
            serial_util[link]["busy_seconds"]
        )


@pytest.mark.skipif(SMOKE, reason="speedup bars calibrated to the 25M-parameter scale")
def test_scheduler_only_speedup_on_torus(worker_results):
    serial_lane, cross = _timings("torus-2d", worker_results[ACCEPTANCE_RATIO], tuned=False)
    speedup = serial_lane.total / cross.total
    assert speedup >= 1.3, (
        f"scheduler-only cross-bucket speedup {speedup:.3f}x below 1.3x on torus-2d"
    )


@pytest.mark.skipif(SMOKE, reason="speedup bars calibrated to the 25M-parameter scale")
def test_scheduler_only_gain_bounded_by_intra_share_on_ethernet(worker_results):
    # InfiniBand is ~17x the effective TCP rate on ethernet-4x8, so the
    # hideable intra share caps the same-pricing win below the 1.10x bar —
    # the full-stack comparison below is where that bar is cleared.
    serial_lane, cross = _timings(
        "ethernet-4x8", worker_results[ACCEPTANCE_RATIO], tuned=False
    )
    speedup = serial_lane.total / cross.total
    assert 1.05 <= speedup <= 1.10


@pytest.mark.skipif(SMOKE, reason="speedup bars calibrated to the 25M-parameter scale")
def test_full_stack_acceptance_on_ethernet(worker_results):
    baseline, _ = _timings("ethernet-4x8", worker_results[ACCEPTANCE_RATIO], tuned=False)
    _, cross_tuned = _timings(
        "ethernet-4x8", worker_results[ACCEPTANCE_RATIO], tuned=True
    )
    speedup = baseline.total / cross_tuned.total
    assert speedup >= 1.10, (
        f"full cross-bucket stack {speedup:.3f}x below the 1.10x acceptance bar "
        "vs the PR-4 scheduler on ethernet-4x8"
    )


@pytest.mark.skipif(SMOKE, reason="artifact records full-scale numbers only")
def test_emit_cross_bucket_bench_artifact(worker_results, emit_artifact):
    records = []
    for preset in SCENARIOS:
        for ratio in RATIOS:
            pr4_serial, cross_serial = _timings(preset, worker_results[ratio], tuned=False)
            _, cross_tuned = _timings(preset, worker_results[ratio], tuned=True)
            records.append(
                {
                    "workload": "cross_bucket_speedup",
                    "config": {"topology": get_topology(preset).name, "ratio": ratio},
                    "metrics": {
                        "pr4_scheduler_seconds": pr4_serial.total,
                        "cross_bucket_tuned_seconds": cross_tuned.total,
                        "scheduler_only_speedup": pr4_serial.total / cross_serial.total,
                        "full_stack_speedup": pr4_serial.total / cross_tuned.total,
                    },
                }
            )
    acceptance = next(
        r["metrics"]
        for r in records
        if r["config"] == {"topology": "ethernet-4x8", "ratio": ACCEPTANCE_RATIO}
    )
    written = emit_artifact(
        ARTIFACT_PATH,
        "cross_bucket_speedup",
        params={
            "dimension": DIMENSION,
            "comm_overhead": COMM_OVERHEAD,
            "overlap": "comm",
            "baseline": "PR-4 scheduler: serial network lane, serial hierarchical phases",
            "tuned_stack": (
                f"cross-bucket per-link lanes + pipeline_chunks={PIPELINE_CHUNKS} "
                "+ uniform dedup"
            ),
        },
        metrics={
            "speedup": acceptance["full_stack_speedup"],
            "scheduler_only_speedup": acceptance["scheduler_only_speedup"],
        },
        records=records,
    )
    assert written["metrics"]["speedup"] >= 1.10
    for record in written["records"]:
        assert record["metrics"]["scheduler_only_speedup"] >= 1.0 - 1e-9
        assert record["metrics"]["full_stack_speedup"] > 1.0
