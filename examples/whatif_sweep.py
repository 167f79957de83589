"""What-if sweeps and auto-tuning: pick the knobs for a job declaratively.

Two demonstrations of the sweep engine:

1. **What-if sweep** — a VGG16-scale workload (Table 1's largest vision
   model) swept over compressor x ratio x overlap on the ``ethernet-4x8``
   preset, rendered as one table.  This replaces the hand-written
   script-per-question workflow: the question *is* the ``SweepSpec``.
2. **Auto-tune** — ``autotune`` searches the full default grid (compressor,
   ratio, bucket bytes, overlap, collective algorithm, dedup) plus local
   ratio/bucket refinement, and reports the best config with its provenance:
   every point, priced or bounded, is in the trace.  A point whose lower
   bound already exceeds the incumbent is bounded, not priced.

Run with:  PYTHONPATH=src python examples/whatif_sweep.py
"""

from __future__ import annotations

from repro.harness import (
    SweepCache,
    SweepSpec,
    WorkloadSpec,
    autotune,
    format_sweep_table,
    run_sweep,
)

#: VGG16-scale planning workload: ~14M gradient elements, 75% of a dense
#: baseline iteration spent communicating on the Ethernet cluster.
DIMENSION = 14_000_000
COMM_OVERHEAD = 0.75
PROXY_ELEMENTS = 2**15
PRESET = "ethernet-4x8"


def main(*, dimension: int = DIMENSION, proxy_elements: int = PROXY_ELEMENTS) -> None:
    workload = WorkloadSpec(
        name="vgg16-scale",
        dimension=dimension,
        comm_overhead=COMM_OVERHEAD,
        proxy_elements=proxy_elements,
    )
    cache = SweepCache()

    # 1. A declarative what-if question: which compressor/ratio/overlap?
    spec = SweepSpec(
        workloads=(workload,),
        axes={
            "topology": (PRESET,),
            "compressor": ("topk", "dgc", "sidco-e"),
            "ratio": (0.1, 0.01, 0.001),
            "overlap": ("none", "comm+compress"),
        },
    )
    result = run_sweep(spec, cache=cache)
    print(
        format_sweep_table(
            result,
            title=f"what-if sweep: {workload.name} on {PRESET} "
            f"({len(result.records)} points)",
        )
    )

    # 2. Auto-tune over the full default grid with local refinement.
    tuned = autotune(workload, PRESET, cache=cache)
    print()
    bounded = sum("lower_bound_seconds" in record.metrics for record in tuned.trace)
    print(f"autotune best config ({tuned.queries - bounded} points priced, "
          f"{bounded} bounded out of the running):")
    defaults_hidden = ("topology", "scheduler_backend", "cross_bucket_pipeline")
    for knob, value in tuned.best_config.items():
        if knob not in defaults_hidden:
            print(f"  {knob:<22} {value}")
    metrics = tuned.best.metrics
    print(f"  -> iteration {metrics['iteration_seconds'] * 1e3:.2f} ms, "
          f"{metrics['speedup_vs_dense']:.2f}x vs the dense baseline "
          f"({metrics['dense_baseline_seconds'] * 1e3:.2f} ms)")
    stats = cache.stats()
    print(f"  cache: {stats['hits']} hits / {stats['misses']} misses "
          "(rerunning this script's queries warm is near-free)")


if __name__ == "__main__":
    main()
