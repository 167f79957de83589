"""Shared fixtures for the paper-reproduction benchmarks.

Every module under ``benchmarks/`` regenerates one table or figure of the
paper (see DESIGN.md §3 for the index).  Training-based figures run the Table
1 proxy benchmarks at "quick" scale — enough iterations for the comparative
shape (who wins, by roughly what factor) to emerge, small enough that the full
suite finishes in minutes.  Results are cached per session so figures sharing
the same underlying runs (e.g. Figures 3, 4, 9, 10) do not retrain.
"""

from __future__ import annotations

import pytest

from repro.harness import compare_compressors, write_bench_artifact
from repro.harness.training_runs import BenchmarkComparison

#: Quick-scale settings shared by all training-based benchmark modules.
QUICK_WORKERS = 4
QUICK_ITERATIONS = 40

_COMPARISON_CACHE: dict = {}


def cached_comparison(
    benchmark: str,
    compressors: tuple[str, ...],
    ratios: tuple[float, ...],
    *,
    num_workers: int = QUICK_WORKERS,
    iterations: int = QUICK_ITERATIONS,
    seed: int = 0,
    device=None,
) -> BenchmarkComparison:
    """Memoised compare_compressors so related figures reuse training runs."""
    key = (benchmark, compressors, ratios, num_workers, iterations, seed, getattr(device, "name", None))
    if key not in _COMPARISON_CACHE:
        kwargs = {}
        if device is not None:
            kwargs["device"] = device
        _COMPARISON_CACHE[key] = compare_compressors(
            benchmark,
            compressors,
            ratios,
            num_workers=num_workers,
            iterations=iterations,
            seed=seed,
            **kwargs,
        )
    return _COMPARISON_CACHE[key]


@pytest.fixture(scope="session")
def comparison_cache():
    """Expose the memoised comparison runner to benchmark modules."""
    return cached_comparison


@pytest.fixture(scope="session")
def emit_artifact():
    """Write one ``BENCH_*`` artifact in the unified schema.

    Wraps :func:`repro.harness.write_bench_artifact`: every emitter passes the
    envelope's ``params``/``metrics``/``records`` and asserts its ratchet bars
    against the returned disk round-trip.
    """
    return write_bench_artifact
