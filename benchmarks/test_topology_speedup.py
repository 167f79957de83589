"""Topology-aware collectives: hierarchical vs flat sparse all-gather.

The paper's two fabrics (Appendix D) differ by ~17x in effective collective
bandwidth: TCP 10 Gbps Ethernet between servers vs 100 Gbps InfiniBand inside
an 8-GPU node.  On a two-level cluster built from both — the ``ethernet-4x8``
preset, 4 nodes x 8 devices — a topology-oblivious ring all-gather pays
``N-1 = 31`` inter-node steps, while the hierarchical algorithm gathers
intra-node first and runs the Ethernet ring over ``M-1 = 3`` node aggregates.

This module demonstrates the acceptance bar:

* hierarchical sparse all-gather strictly beats flat all-gather on the
  ``ethernet-4x8`` preset at every paper compression ratio (the intra-node
  fabric clears the derived crossover factor),
* threaded through ``TimelineModel``, a bucketed compressed iteration gets
  strictly cheaper communication, with per-phase events in the schedule trace,

and emits a ``BENCH_topology.json`` artifact at the repository root recording
the per-ratio speedups.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_topology_speedup.py -v``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.compressors import create_compressor
from repro.distributed import (
    CollectiveModel,
    TimelineModel,
    compute_time_for_overhead,
    get_topology,
    hierarchical_crossover_factor,
)
from repro.gradients import realistic_gradient
from repro.perfmodel import GPU_V100
from repro.pipeline import CompressionPipeline
from repro.tensor.sparse import FLOAT_BYTES

#: The acceptance-scale model (matches the overlap/pipeline benchmarks).
DIMENSION = 25_000_000
#: Sparse payload bytes per element: value + index.
SPARSE_ELEMENT_BYTES = 2 * FLOAT_BYTES
RATIOS = (0.1, 0.01, 0.001)
COMM_OVERHEAD = 0.72

ARTIFACT_PATH = Path(__file__).resolve().parents[1] / "BENCH_topology.json"

TOPOLOGY = get_topology("ethernet-4x8")
FLAT = CollectiveModel(TOPOLOGY, allgather_algorithm="flat-allgather")
HIERARCHICAL = CollectiveModel(TOPOLOGY, allgather_algorithm="hierarchical")


def _timeline(collective: CollectiveModel) -> TimelineModel:
    compute = compute_time_for_overhead(
        TOPOLOGY.inter_node, TOPOLOGY.num_workers, DIMENSION, COMM_OVERHEAD
    )
    return TimelineModel(
        network=TOPOLOGY.inter_node,
        device=GPU_V100,
        compute_seconds=compute,
        num_workers=TOPOLOGY.num_workers,
        model_dimension=DIMENSION,
        collective=collective,
    )


@pytest.fixture(scope="module")
def worker_results():
    gradient = realistic_gradient(DIMENSION, seed=0)
    pipeline = CompressionPipeline(create_compressor("sidco-e"))
    for _ in range(2):  # warm the stage controller to steady state
        result = pipeline.compress(gradient, 0.001)
    return [result]


def test_preset_clears_crossover():
    ratio = TOPOLOGY.intra_node.bytes_per_second / TOPOLOGY.inter_node.bytes_per_second
    assert ratio > hierarchical_crossover_factor(TOPOLOGY)


@pytest.mark.parametrize("ratio", RATIOS)
def test_hierarchical_beats_flat_at_every_paper_ratio(ratio):
    payload = ratio * DIMENSION * SPARSE_ELEMENT_BYTES
    flat = FLAT.allgather_cost(payload)
    hier = HIERARCHICAL.allgather_cost(payload)
    assert hier.total < flat.total, (
        f"hierarchical must beat flat all-gather on {TOPOLOGY.name} at ratio {ratio}"
    )
    # The win comes from the inter-node fabric: 3 node-aggregate steps vs 31
    # per-device steps.
    inter_volume = sum(p.volume_bytes for p in hier.phases if p.link == TOPOLOGY.inter_node.name)
    assert inter_volume < sum(p.volume_bytes for p in flat.phases)


def test_timeline_iteration_cheaper_with_hierarchical(worker_results):
    assert worker_results[0].metadata["num_buckets"] > 1
    flat_timing = _timeline(FLAT).compressed_iteration(worker_results, overlap="comm")
    hier_timing = _timeline(HIERARCHICAL).compressed_iteration(worker_results, overlap="comm")
    assert hier_timing.communication < flat_timing.communication
    assert hier_timing.total < flat_timing.total
    # Per-phase placements ride in the schedule trace.
    schedule = hier_timing.schedule
    used = schedule.present.any(axis=0)
    phases = {name for name, seen in zip(schedule.phase_names, used) if seen}
    assert phases == {"intra-gather", "inter-allgather", "intra-broadcast"}


def test_emit_topology_bench_artifact(worker_results, emit_artifact):
    records = []
    for ratio in RATIOS:
        payload = ratio * DIMENSION * SPARSE_ELEMENT_BYTES
        flat = FLAT.allgather_cost(payload).total
        hier = HIERARCHICAL.allgather_cost(payload).total
        records.append(
            {
                "workload": "topology_speedup",
                "config": {"topology": TOPOLOGY.name, "ratio": ratio},
                "metrics": {
                    "flat_allgather_seconds": flat,
                    "hierarchical_seconds": hier,
                    "speedup": flat / hier,
                },
            }
        )
    flat_timing = _timeline(FLAT).compressed_iteration(worker_results, overlap="comm")
    hier_timing = _timeline(HIERARCHICAL).compressed_iteration(worker_results, overlap="comm")
    topology = {
        "name": TOPOLOGY.name,
        "num_nodes": TOPOLOGY.num_nodes,
        "devices_per_node": TOPOLOGY.devices_per_node,
        "inter_node": TOPOLOGY.inter_node.name,
        "intra_node": TOPOLOGY.intra_node.name,
        "crossover_factor": hierarchical_crossover_factor(TOPOLOGY),
        "effective_bandwidth_ratio": TOPOLOGY.intra_node.bytes_per_second
        / TOPOLOGY.inter_node.bytes_per_second,
    }
    written = emit_artifact(
        ARTIFACT_PATH,
        "topology_speedup",
        params={"dimension": DIMENSION, "topology": topology},
        metrics={"compressed_iteration_speedup": flat_timing.total / hier_timing.total},
        records=records,
    )
    assert all(r["metrics"]["speedup"] > 1.0 for r in written["records"])
    assert written["metrics"]["compressed_iteration_speedup"] > 1.0
