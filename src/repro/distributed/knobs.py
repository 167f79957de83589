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
trainer setting; it can no longer miss the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .faults import ClusterProfile, SyncPolicy, get_sync_policy, validate_sync_policy
from .schedule import validate_cross_bucket, validate_overlap
from .topology import (
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
        if self.bucket_bytes is not None and (isinstance(self.bucket_bytes, bool) or self.bucket_bytes < 1):
            raise ValueError(f"bucket_bytes must be a positive int when set, got {self.bucket_bytes!r}")
        validate_overlap(self.overlap)
        if isinstance(self.topology, str):
            get_topology(self.topology)  # fail fast on unknown preset names
        get_collective_algorithm(self.allreduce_algorithm, op="allreduce")
        get_collective_algorithm(self.allgather_algorithm, op="allgather")
        validate_pipeline_chunks(self.pipeline_chunks)
        if self.dedup_assumption is not None:
            SparseAggregateModel(self.dedup_assumption)  # fail fast on unknown assumptions
        validate_cross_bucket(self.cross_bucket_pipeline)
        validate_scheduler_backend(self.scheduler_backend)
        validate_sync_policy(self.sync_policy)
        if isinstance(self.backup_workers, bool) or self.backup_workers < 0:
            raise ValueError(f"backup_workers must be an int >= 0, got {self.backup_workers!r}")
        if self.backup_workers > 0 and self.sync_policy != "backup-workers":
            raise ValueError(
                "backup_workers > 0 requires sync_policy='backup-workers', "
                f"got {self.sync_policy!r}"
            )
        if self.time_window_factor is not None:
            if not math.isfinite(self.time_window_factor) or self.time_window_factor < 1.0:
                raise ValueError(
                    f"time_window_factor must be >= 1, got {self.time_window_factor!r}"
                )
            if self.sync_policy != "time-window":
                raise ValueError(
                    "time_window_factor requires sync_policy='time-window', "
                    f"got {self.sync_policy!r}"
                )
        for name in ("straggler_severity", "link_degradation"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 1.0:
                raise ValueError(f"{name} must be a finite multiplier >= 1, got {value!r}")

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
