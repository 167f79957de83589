"""Auto-tuner over the what-if sweep engine.

:func:`autotune` answers the production-facing planning query: *given my
job's size and communication overhead, and this cluster fabric, which knob
settings minimize iteration time?*  The search is deliberately simple and
fully auditable:

1. **Coarse grid** — a declarative :class:`~repro.harness.sweep.SweepSpec`
   over the tuning axes (compressor, ratio, bucket bytes, overlap,
   collectives, dedup) is expanded and evaluated through
   :func:`~repro.harness.sweep.run_sweep`.  With ``refine_rounds=0`` the
   result is exactly the exhaustive-enumeration argbest of the grid — the
   property the oracle tests pin.
2. **Local refinement** — the two continuous knobs (``ratio``,
   ``bucket_bytes``) are refined around the incumbent by multiplicative
   steps, shrinking the step factor whenever a round fails to improve.

Every evaluated point lands in the provenance ``trace`` (a
:class:`~repro.harness.sweep.SweepRecord` per unique config, in evaluation
order), so a tuning decision can always be replayed and audited.  Ties break
deterministically on the point's stable key, formatted only for records
tied on the metric.  Repeated queries share a
:class:`~repro.harness.sweep.SweepCache`: a warm query prices nothing, and
its cost is one cache lookup per point (the warm/cold floor is ratcheted in
``benchmarks/test_sweep_throughput.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .sweep import (
    DEFAULT_CONSTRAINTS,
    SweepCache,
    SweepPoint,
    SweepRecord,
    SweepSpec,
    WorkloadSpec,
    evaluate_point,
    global_sweep_cache,
    run_sweep,
)

#: Metrics ``autotune`` knows how to rank, and the direction that is "better".
TUNE_TARGETS: dict[str, str] = {
    "iteration_seconds": "min",
    "serialized_seconds": "min",
    "communication_seconds": "min",
    "compression_seconds": "min",
    "speedup_vs_dense": "max",
    "overlap_saving": "max",
    "straggler_overhead": "min",
}

#: Default coarse grid: the knobs that dominate iteration time, at the
#: paper's ratios and the repo's algorithm/overlap options.
DEFAULT_TUNE_AXES: dict = {
    "compressor": ("topk", "dgc", "sidco-e"),
    "ratio": (0.1, 0.01, 0.001),
    "bucket_bytes": (2**20, 4 * 2**20, 16 * 2**20),
    "overlap": ("none", "comm", "comm+compress"),
    "allgather_algorithm": ("flat-allgather", "hierarchical"),
    "dedup_assumption": (None, "uniform"),
    # Inert knob: one scheduler prices every point; the axis keeps the value
    # that existing tuner records carry.
    "scheduler_backend": ("vectorized",),
}

#: Floors/ceilings for the refinement moves.
_MIN_RATIO = 1e-5
_MAX_RATIO = 1.0
_MIN_BUCKET_BYTES = 2**16


@dataclass(frozen=True)
class TuneResult:
    """Outcome of one :func:`autotune` query, with full provenance.

    ``trace`` holds every unique point evaluated (coarse grid first, then
    refinement candidates, in evaluation order); ``queries`` is its length.
    ``best`` is the argbest of the whole trace under (``target``, ``mode``).
    """

    workload: WorkloadSpec
    target: str
    mode: str
    best: SweepRecord
    trace: tuple[SweepRecord, ...]
    refine_rounds: int

    @property
    def best_config(self) -> dict:
        return dict(self.best.config)

    @property
    def best_metric(self) -> float:
        return self.best.metrics[self.target]

    @property
    def queries(self) -> int:
        return len(self.trace)


def _argbest(records: Sequence[SweepRecord], target: str, mode: str) -> SweepRecord:
    """Best metric first; among ties only, the smallest stable point key."""
    if not records:
        raise ValueError("no points satisfied the axes/constraints")
    best = (max if mode == "max" else min)(r.metrics[target] for r in records)
    return min((r for r in records if r.metrics[target] == best), key=lambda r: r.point.key)


def _refinement_candidates(config: Mapping, ratio_step: float, bucket_step: float) -> list[dict]:
    """Axis-parallel multiplicative neighbours of the incumbent config."""
    candidates: list[dict] = []
    for scale in (ratio_step, 1.0 / ratio_step):
        ratio = min(max(config["ratio"] * scale, _MIN_RATIO), _MAX_RATIO)
        if ratio != config["ratio"]:
            candidates.append({**config, "ratio": ratio})
    if config["bucket_bytes"] is not None:
        for scale in (bucket_step, 1.0 / bucket_step):
            bucket = max(int(round(config["bucket_bytes"] * scale)), _MIN_BUCKET_BYTES)
            if bucket != config["bucket_bytes"]:
                candidates.append({**config, "bucket_bytes": bucket})
    return candidates


def autotune(
    workload: WorkloadSpec | str,
    topology: str | Sequence[str],
    *,
    target: str = "iteration_seconds",
    axes: Mapping[str, tuple] | None = None,
    constraints: tuple = DEFAULT_CONSTRAINTS,
    refine_rounds: int = 2,
    ratio_step: float = 0.5,
    bucket_step: float = 0.5,
    cache: SweepCache | None = None,
    memoize: bool = True,
) -> TuneResult:
    """Best knob settings for ``workload`` on ``topology`` under ``target``.

    ``workload`` may be a :class:`WorkloadSpec` or a Table 1 benchmark name
    (resolved via :meth:`WorkloadSpec.from_benchmark`).  ``topology`` is a
    preset name, or several to let the tuner pick the fabric too.  With
    ``refine_rounds=0`` the answer is exactly the exhaustive argbest of the
    coarse grid; each refinement round then probes multiplicative
    ratio/bucket neighbours of the incumbent, halving the step whenever a
    round yields no improvement.
    """
    if isinstance(workload, str):
        workload = WorkloadSpec.from_benchmark(workload)
    if target not in TUNE_TARGETS:
        raise ValueError(f"unknown tuning target {target!r}; known: {list(TUNE_TARGETS)}")
    if refine_rounds < 0:
        raise ValueError(f"refine_rounds must be >= 0, got {refine_rounds}")
    for name, step in (("ratio_step", ratio_step), ("bucket_step", bucket_step)):
        if not 0.0 < step < 1.0:
            raise ValueError(f"{name} must be in (0, 1), got {step}")
    mode = TUNE_TARGETS[target]
    grid_axes = dict(DEFAULT_TUNE_AXES if axes is None else axes)
    grid_axes["topology"] = (topology,) if isinstance(topology, str) else tuple(topology)
    spec = SweepSpec(workloads=(workload,), axes=grid_axes, constraints=constraints)

    active_cache = cache if cache is not None else (global_sweep_cache() if memoize else None)
    coarse = run_sweep(spec, cache=active_cache, memoize=memoize)
    trace: list[SweepRecord] = list(coarse.records)
    seen: set[SweepPoint] = {record.point for record in trace}
    best = _argbest(trace, target, mode)

    for _ in range(refine_rounds):
        improved = False
        for config in _refinement_candidates(best.config, ratio_step, bucket_step):
            if not spec.admits(config):
                continue
            point = SweepPoint.from_config(workload.name, config)
            if point in seen:
                continue
            seen.add(point)
            metrics = evaluate_point(workload, point, cache=active_cache)
            record = SweepRecord(workload.name, point.config, metrics, point)
            trace.append(record)
            if _argbest((best, record), target, mode) is record:
                best = record
                improved = True
        if not improved:
            # No neighbour beat the incumbent: tighten toward it.
            ratio_step = ratio_step**0.5
            bucket_step = bucket_step**0.5

    return TuneResult(
        workload=workload,
        target=target,
        mode=mode,
        best=best,
        trace=tuple(trace),
        refine_rounds=refine_rounds,
    )


__all__ = [
    "DEFAULT_TUNE_AXES",
    "TUNE_TARGETS",
    "TuneResult",
    "autotune",
]
