"""Serialized vs overlapped iteration time across the compressor registry.

Prices one synchronous training iteration of a 25M-parameter model (ResNet-50
class, Table 1's 72% communication overhead) for every sparsifying compressor
in the registry, under the three overlap policies of the event-driven
iteration schedule:

* ``none``          — compute, compression and communication serialise (the
  closed-form sum the paper's conservative model uses),
* ``comm``          — each bucket's all-gather overlaps later buckets'
  compression,
* ``comm+compress`` — compression additionally starts at each bucket's
  gradient-ready point during backprop (DDP/Horovod-style pipelining).

Run with:  PYTHONPATH=src python examples/overlap_timeline.py
"""

from __future__ import annotations

from dataclasses import replace

from repro.compressors import available_compressors, create_compressor
from repro.distributed import CollectiveModel, TimelineModel, compute_time_for_overhead
from repro.distributed.network import CLUSTER_ETHERNET_10G
from repro.gradients import realistic_gradient
from repro.perfmodel import GPU_V100
from repro.pipeline import CompressionPipeline
from repro.harness import format_table

DIMENSION = 25_000_000
SAMPLE = 2_000_000  # gradient actually materialised; traces scale linearly
RATIO = 0.001
NUM_WORKERS = 8
COMM_OVERHEAD = 0.72


def main(*, dimension: int = DIMENSION, sample: int = SAMPLE) -> None:
    compute = compute_time_for_overhead(
        CLUSTER_ETHERNET_10G, NUM_WORKERS, dimension, COMM_OVERHEAD
    )
    timeline = TimelineModel(
        collective=CollectiveModel.flat(CLUSTER_ETHERNET_10G, NUM_WORKERS),
        device=GPU_V100,
        compute_seconds=compute,
        model_dimension=sample,
        dimension_scale=dimension / sample,
    )
    gradient = realistic_gradient(sample, seed=0)
    baseline = timeline.baseline_iteration().total

    rows = []
    names = [n for n in available_compressors() if n != "none"]
    for name in sorted(names):
        pipeline = CompressionPipeline(create_compressor(name))
        for _ in range(2):  # settle adaptive stage controllers
            result = pipeline.compress(gradient, RATIO)
        timings = {
            policy: replace(timeline, overlap=policy).compressed_iteration([result])
            for policy in ("none", "comm", "comm+compress")
        }
        rows.append(
            {
                "compressor": name,
                "serialized_s": timings["none"].total,
                "comm_overlap_s": timings["comm"].total,
                "full_overlap_s": timings["comm+compress"].total,
                "saved_pct": 100.0 * timings["comm+compress"].overlap_saving,
                "speedup_vs_dense": baseline / timings["comm+compress"].total,
            }
        )

    print(
        format_table(
            rows,
            columns=[
                "compressor",
                "serialized_s",
                "comm_overlap_s",
                "full_overlap_s",
                "saved_pct",
                "speedup_vs_dense",
            ],
            title=(
                f"one iteration, {dimension:,} params, ratio={RATIO}, "
                f"{NUM_WORKERS} workers on {CLUSTER_ETHERNET_10G.name} "
                f"(dense baseline {baseline:.3f}s)"
            ),
        )
    )
    print(
        "\nReading the table: 'serialized_s' is the old flat sum; overlapping the"
        "\nper-bucket all-gathers ('comm_overlap_s') helps modestly, and also starting"
        "\ncompression at each bucket's gradient-ready point ('full_overlap_s') hides"
        "\nmost of the compression cost behind backprop — which is where the paper's"
        "\nwall-clock speedups come from."
    )


if __name__ == "__main__":
    main()
