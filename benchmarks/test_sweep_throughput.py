"""Tuner query throughput: cache-warm vs cache-cold what-if sweeps.

The auto-tuner (:func:`repro.harness.autotune`) is the planning front-end of
the sweep engine: one query expands the coarse knob grid, prices every
admitted point through the compression/collective/schedule stack, and
locally refines ratio/bucket-bytes around the incumbent.  A cold query pays
the full evaluation cost; a warm query — same workload, same fabric, same
axes — should be answered almost entirely from the
:class:`~repro.harness.SweepCache` (memoized compression results,
``CollectiveCost``/``PhaseTable`` pricing, whole point evaluations).

Acceptance bars:

* a warm tuner answers >= 5x more queries per second than a cold one (the
  cache floor; enforced at smoke scale too — the ratio is scale-free
  because both sides shrink together), and
* warm queries replay the cold decision exactly (same best config, same
  provenance trace).

Results land in ``BENCH_sweep.json`` at the repo root with the tuner
queries/second headline, cache-warm and cache-cold.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_sweep_throughput.py -v``.
Unlike the 25M-element benchmarks, every sweep evaluation is already
proxy-scale, so ``SIDCO_SMOKE_DIMENSION`` does not shrink the workload: the
warm/cold floor and the replay check run at full fidelity in the CI smoke, and only the artifact write is skipped (a smoke runner's
queries/second is not comparable to the calibrated full-scale number).
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from repro.harness import SweepCache, WorkloadSpec, autotune

PROXY_ELEMENTS = 2**15
SMOKE = "SIDCO_SMOKE_DIMENSION" in os.environ

PRESET = "ethernet-4x8"
#: The warm cache must answer at least this many times more tuner queries per
#: second than a cold one (measured ~8-9x at full scale).
MIN_WARM_SPEEDUP = 5.0
#: Cold/warm query batches timed for the artifact (cold rebuilds the cache).
TIMED_QUERIES = 3

ARTIFACT_PATH = Path(__file__).resolve().parents[1] / "BENCH_sweep.json"

#: The planning workload: a VGG16-scale job (Table 1's largest vision model)
#: with the paper's Ethernet-cluster communication overhead.
WORKLOAD = WorkloadSpec(
    name="vgg16-scale",
    dimension=14_000_000,
    comm_overhead=0.75,
    proxy_elements=PROXY_ELEMENTS,
)


def _one_query(cache: SweepCache):
    return autotune(WORKLOAD, PRESET, cache=cache)


def _queries_per_second(cache_factory, queries: int = TIMED_QUERIES) -> float:
    total = 0.0
    for _ in range(queries):
        cache = cache_factory()
        start = time.perf_counter()
        _one_query(cache)
        total += time.perf_counter() - start
    return queries / total


def test_warm_tuner_replays_cold_decision_exactly():
    cache = SweepCache()
    cold = _one_query(cache)
    warm = _one_query(cache)
    assert warm.best == cold.best
    assert warm.trace == cold.trace
    assert cache.hits > 0


def test_warm_queries_clear_speedup_floor():
    shared = SweepCache()
    _one_query(shared)  # populate
    cold_qps = _queries_per_second(SweepCache)
    warm_qps = _queries_per_second(lambda: shared)
    assert warm_qps >= MIN_WARM_SPEEDUP * cold_qps, (
        f"warm tuner at {warm_qps:.1f} q/s vs cold {cold_qps:.1f} q/s — "
        f"below the {MIN_WARM_SPEEDUP}x cache floor"
    )


@pytest.mark.skipif(SMOKE, reason="artifact records full-scale numbers only")
def test_emit_sweep_bench_artifact(emit_artifact):
    shared = SweepCache()
    result = _one_query(shared)
    cold_qps = _queries_per_second(SweepCache)
    warm_qps = _queries_per_second(lambda: shared)
    emit_artifact(
        ARTIFACT_PATH,
        "sweep_throughput",
        params={
            "workload": {
                "name": WORKLOAD.name,
                "dimension": WORKLOAD.dimension,
                "comm_overhead": WORKLOAD.comm_overhead,
                "proxy_elements": WORKLOAD.proxy_elements,
            },
            "topology": PRESET,
            "target": result.target,
            "min_warm_speedup_bar": MIN_WARM_SPEEDUP,
            "timed_queries": TIMED_QUERIES,
        },
        metrics={
            "cold_queries_per_second": cold_qps,
            "warm_queries_per_second": warm_qps,
            "warm_speedup": warm_qps / cold_qps,
            "points_per_query": result.queries,
            "best_iteration_seconds": result.best_metric,
        },
        records=[
            {
                "workload": WORKLOAD.name,
                "config": result.best_config,
                "metrics": dict(result.best.metrics),
            }
        ],
    )
    assert warm_qps >= MIN_WARM_SPEEDUP * cold_qps
