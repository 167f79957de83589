"""The consolidated simulation-knob bundle shared by every pricing surface.

Before this module, the ~14 scheduler/collective knobs (bucket size, overlap
policy, topology, collective algorithms, chunk pipelining, dedup assumption,
cross-bucket pipelining, scheduler backend, and now the fault/policy knobs)
were duplicated as flat fields and kwargs across ``TrainerConfig``,
``BenchmarkConfig``, ``run_benchmark``, ``compare_compressors`` and
``evaluate_point`` — five places whose defaults could silently drift apart,
and a sweep grid (``SWEEP_KNOBS``) that had to be updated by hand whenever a
knob was added.

:class:`SimulationKnobs` is now the single source of truth: the field order
*is* the sweep's canonical knob order (``repro.harness.sweep.SWEEP_KNOBS``
derives from :data:`KNOB_FIELDS`), ``TrainerConfig`` holds exactly one bundle
in its ``knobs`` field, ``run_benchmark``/``compare_compressors`` take one as
``knobs=``, and validation — including cross-knob consistency like
``backup_workers`` requiring the ``backup-workers`` policy — happens once, in
``__post_init__``.  A knob added here is automatically a sweepable axis and a
trainer setting; it can no longer miss the grid.  Each knob's own check lives
in :data:`KNOB_CHECKS`, which the sweep runs on every axis value too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from numbers import Real
from typing import Callable

from .faults import ClusterProfile, SyncPolicy, get_sync_policy, validate_sync_policy
from .schedule import validate_cross_bucket, validate_overlap
from .topology import (
    ClusterTopology,
    SparseAggregateModel,
    get_collective_algorithm,
    get_topology,
    validate_pipeline_chunks,
)


#: Accepted values of the inert ``SimulationKnobs.scheduler_backend`` field.
_INERT_SCHEDULER_BACKENDS: tuple[str, ...] = ("loop", "vectorized")


def validate_scheduler_backend(backend: str) -> str:
    """Return ``backend`` if it is an accepted (inert) scheduler name, else raise."""
    if backend not in _INERT_SCHEDULER_BACKENDS:
        raise ValueError(
            f"unknown scheduler backend {backend!r}; known: {list(_INERT_SCHEDULER_BACKENDS)}"
        )
    return backend


def _check_count(name: str, value, minimum: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"{name} must be an int >= {minimum}, got {value!r}")


def _check_factor(name: str, value) -> None:
    real = isinstance(value, Real) and not isinstance(value, bool)
    if not (real and math.isfinite(value) and value >= 1.0):
        raise ValueError(f"{name} must be >= 1 and finite, got {value!r}")


def _check_topology(topology) -> None:
    if isinstance(topology, str):
        get_topology(topology)  # fail fast on unknown preset names
    elif topology is not None and not isinstance(topology, ClusterTopology):
        raise ValueError(
            f"topology must be a preset name, a ClusterTopology or None, got {topology!r}"
        )


#: Each knob's own check, in field order: :class:`SimulationKnobs` runs them
#: on its fields and the sweep on every axis value, so the two accept the
#: same values.  Cross-knob rules stay in ``SimulationKnobs.__post_init__``.
KNOB_CHECKS: dict[str, Callable] = {
    "bucket_bytes": lambda v: v is None or _check_count("bucket_bytes", v, 1),
    "overlap": validate_overlap,
    "topology": _check_topology,
    "allreduce_algorithm": lambda v: get_collective_algorithm(v, op="allreduce"),
    "allgather_algorithm": lambda v: get_collective_algorithm(v, op="allgather"),
    "pipeline_chunks": validate_pipeline_chunks,
    "dedup_assumption": lambda v: v is None or SparseAggregateModel(v),
    "cross_bucket_pipeline": validate_cross_bucket,
    "scheduler_backend": validate_scheduler_backend,
    "sync_policy": validate_sync_policy,
    "backup_workers": lambda v: _check_count("backup_workers", v, 0),
    "time_window_factor": lambda v: v is None or _check_factor("time_window_factor", v),
    "straggler_severity": lambda v: _check_factor("straggler_severity", v),
    "link_degradation": lambda v: _check_factor("link_degradation", v),
}


@dataclass(frozen=True)
class SimulationKnobs:
    """Every knob that shapes how one training iteration is priced.

    Field order is load-bearing: it is the canonical knob order of the sweep
    grid (old knobs first, in their PR-9 order, new fault/policy knobs
    appended), so adding a field here extends the grid without re-keying any
    existing sweep point.
    """

    #: Bytes per gradient bucket (``None`` = one fused buffer, no bucketing).
    bucket_bytes: int | None = None
    #: Overlap policy of the event-driven schedule (see ``schedule.py``).
    overlap: str = "none"
    #: Cluster topology: preset name, explicit ``ClusterTopology``, or ``None``
    #: for the degenerate single-level topology over the caller's network.
    topology: object = None
    #: Collective algorithm pricing the dense baseline all-reduce.
    allreduce_algorithm: str = "ring-allreduce"
    #: Collective algorithm pricing the sparse all-gather.
    allgather_algorithm: str = "flat-allgather"
    #: Payload chunks hierarchical collective phases pipeline over.
    pipeline_chunks: int = 1
    #: Index-overlap assumption for per-node sparse dedup, or ``None``.
    dedup_assumption: str | None = None
    #: Schedule buckets on per-link network lanes (cross-bucket pipelining).
    cross_bucket_pipeline: bool = False
    #: Inert.  Every bucketed iteration runs the one array scheduler; both
    #: former backend names (``"loop"``, ``"vectorized"``) are still accepted
    #: so existing bundles, sweep grids and their records keep this key.
    scheduler_backend: str = "loop"
    #: Synchronization policy under faults: ``"full-sync"``,
    #: ``"backup-workers"`` or ``"time-window"`` (see ``faults.py``).
    sync_policy: str = "full-sync"
    #: Slowest workers the ``backup-workers`` policy cuts per iteration.
    backup_workers: int = 0
    #: ``time-window`` accumulation window as a multiple of the fastest
    #: worker's finish time (``None`` = the policy default when selected).
    time_window_factor: float | None = None
    #: Deterministic compute slowdown (>= 1) of the designated straggler
    #: (worker 0); 1.0 = homogeneous cluster.
    straggler_severity: float = 1.0
    #: Deterministic link-time multiplier (>= 1) of the designated straggler
    #: (worker 0); 1.0 = clean links.
    link_degradation: float = 1.0

    def __post_init__(self) -> None:
        for name, check in KNOB_CHECKS.items():
            check(getattr(self, name))
        if self.backup_workers > 0 and self.sync_policy != "backup-workers":
            raise ValueError(
                "backup_workers > 0 requires sync_policy='backup-workers', "
                f"got {self.sync_policy!r}"
            )
        if self.time_window_factor is not None and self.sync_policy != "time-window":
            raise ValueError(
                "time_window_factor requires sync_policy='time-window', "
                f"got {self.sync_policy!r}"
            )

    @property
    def faulted(self) -> bool:
        """True when any fault/policy knob departs from the clean-cluster default."""
        return (
            self.sync_policy != "full-sync"
            or self.backup_workers != 0
            or self.time_window_factor is not None
            or self.straggler_severity != 1.0
            or self.link_degradation != 1.0
        )

    def build_sync_policy(self) -> SyncPolicy:
        """The sync policy the ``sync_policy`` knob and its parameters name."""
        return get_sync_policy(
            self.sync_policy,
            backup_workers=self.backup_workers,
            time_window_factor=self.time_window_factor,
        )

    def straggler_profile(self, num_workers: int) -> ClusterProfile:
        """The single-straggler cluster: worker 0 at ``straggler_severity`` x
        compute and ``link_degradation`` x link time, everyone else nominal
        (the homogeneous cluster at the default knobs)."""
        return ClusterProfile.degraded(
            num_workers, compute=self.straggler_severity, link=self.link_degradation
        )

    def replace(self, **overrides) -> "SimulationKnobs":
        """A copy with ``overrides`` applied (re-validated)."""
        return replace(self, **overrides)

    def as_dict(self) -> dict:
        """Field name -> value, in canonical knob order."""
        return {name: getattr(self, name) for name in KNOB_FIELDS}


#: Canonical knob order — the single source the sweep grid derives from.
KNOB_FIELDS: tuple[str, ...] = tuple(f.name for f in fields(SimulationKnobs))
