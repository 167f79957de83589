"""Auto-tuner over the what-if sweep engine.

:func:`autotune` answers the production-facing planning query: *given my
job's size and communication overhead, and this cluster fabric, which knob
settings minimize iteration time?*  The search is deliberately simple and
fully auditable:

1. **Coarse grid** — a declarative :class:`~repro.harness.sweep.SweepSpec`
   over the tuning axes (compressor, ratio, bucket bytes, overlap,
   collectives, dedup) is expanded, and every point is first *bounded*:
   :func:`~repro.harness.sweep.bound_point` compresses its proxy and prices
   its phase table, but schedules nothing.  Points are then *priced*
   (:func:`~repro.harness.sweep.evaluate_point`) in bound order, and a point
   whose bound is strictly above the incumbent's iteration time is skipped:
   it cannot win.  The bound is sound, so the skipped points are exactly
   those whose bound exceeds the grid's best, whatever the visit order or
   the cache holds.  With ``refine_rounds=0`` the result is exactly the
   exhaustive-enumeration argbest of the grid — the property the oracle
   tests pin.
2. **Local refinement** — the two continuous knobs (``ratio``,
   ``bucket_bytes``) are refined around the incumbent by multiplicative
   steps, shrinking the step factor whenever a round fails to improve.  A
   candidate is skipped by the same test against the current incumbent.

Only the ``iteration_seconds`` target is bounded; other targets price every
point, as do points without a bound (unbucketed or faulted ones).

Every point, priced or bounded, lands in the provenance ``trace`` (a
:class:`~repro.harness.sweep.SweepRecord` per unique config: the coarse grid
in expansion order, then refinement candidates in visit order), and
``queries`` counts them all.  A priced record's ``metrics`` is
:func:`~repro.harness.sweep.evaluate_point`'s dict; a skipped record's is
``{"lower_bound_seconds": bound}``, which says why it lost.  So a tuning
decision can always be replayed and audited.  Ties break deterministically
on the point's stable key, formatted only for records tied on the metric.
Repeated queries share a :class:`~repro.harness.sweep.SweepCache`, which
holds each point's bound next to its evaluation: a warm query prices and
bounds nothing, and its cost is its cache lookups (the warm/cold floor is
ratcheted in ``benchmarks/test_sweep_throughput.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .sweep import (
    DEFAULT_CONSTRAINTS,
    SweepCache,
    SweepPoint,
    SweepRecord,
    SweepSpec,
    WorkloadSpec,
    _active_cache,
    bound_point,
    evaluate_point,
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

    ``trace`` holds every unique point, priced or bounded (coarse grid first,
    in expansion order, then refinement candidates, in visit order);
    ``queries`` is its length.  ``best`` is the argbest of the priced records
    under (``target``, ``mode``).
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


def _bounded(workload: WorkloadSpec, point: SweepPoint, bound: float) -> SweepRecord:
    """The trace record of a point skipped because ``bound`` cannot win."""
    return SweepRecord(workload.name, point.config, {"lower_bound_seconds": bound}, point)


def _coarse_grid(
    workload: WorkloadSpec,
    points: list[SweepPoint],
    target: str,
    prune: bool,
    cache: SweepCache | None,
) -> tuple[list[SweepRecord], list[SweepRecord]]:
    """``(trace, priced)``: one record per point in expansion order, and the priced ones.

    With ``prune``, every point is bounded first, then points are priced in
    bound order until the next bound is strictly above the incumbent; bounds
    only grow and the incumbent only falls, so every later point is skipped
    too.  The visit order decides how many points are priced, never which
    ones: a point is priced exactly when its bound does not exceed the
    grid's best.  Without ``prune`` every bound is ``-inf``.
    """
    if prune:
        bounds = [bound_point(workload, point, cache=cache) for point in points]
    else:
        bounds = [-math.inf] * len(points)
    metrics: list[dict | None] = [None] * len(points)
    incumbent = math.inf
    for i in sorted(range(len(points)), key=bounds.__getitem__):
        if bounds[i] > incumbent:
            break
        metrics[i] = evaluate_point(workload, points[i], cache=cache)
        incumbent = min(incumbent, metrics[i][target])
    trace = [
        _bounded(workload, point, bound)
        if priced is None
        else SweepRecord(workload.name, point.config, priced, point)
        for point, priced, bound in zip(points, metrics, bounds)
    ]
    return trace, [record for record, priced in zip(trace, metrics) if priced is not None]


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
    round yields no improvement.  Under ``target="iteration_seconds"`` a
    point whose lower bound is strictly above the incumbent is bounded
    instead of priced (see the module docstring).  ``cache`` and ``memoize``
    behave as in :func:`~repro.harness.sweep.run_sweep`.
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

    active = _active_cache(cache, memoize)
    prune = target == "iteration_seconds"
    points = spec.expand()
    trace, priced = _coarse_grid(workload, points, target, prune, active)
    seen: set[SweepPoint] = set(points)
    best = _argbest(priced, target, mode)

    for _ in range(refine_rounds):
        improved = False
        for config in _refinement_candidates(best.config, ratio_step, bucket_step):
            if not spec.admits(config):
                continue
            point = SweepPoint.from_config(workload.name, config)
            if point in seen:
                continue
            seen.add(point)
            bound = bound_point(workload, point, cache=active) if prune else -math.inf
            if bound > best.metrics[target]:
                trace.append(_bounded(workload, point, bound))
                continue
            metrics = evaluate_point(workload, point, cache=active)
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
