"""Declarative what-if sweep engine over the simulator's knob space.

"Which knobs for my job?" is composed declaratively over the
:data:`SWEEP_KNOBS`, in the ``mlmd_bench`` idiom of named workload specs
crossed with a config grid:

* :class:`WorkloadSpec` — the job being planned for: full-size gradient
  dimension and communication-overhead fraction, plus the proxy gradient the
  evaluator actually compresses (dimension-scaled like every Table 1 proxy).
* :class:`SweepSpec` — workloads x a knob grid with explicit axes and
  declarative :class:`KnobConstraint` implications (e.g. sparse dedup
  requires the hierarchical all-gather).  :meth:`SweepSpec.expand` is exactly
  the constrained cross-product, deduplicated, in deterministic order.
* :func:`evaluate_point` — prices one :class:`SweepPoint` through the real
  pipeline/timeline stack (compress a seeded proxy gradient, then
  :meth:`TimelineModel.from_knobs
  <repro.distributed.timeline.TimelineModel.from_knobs>` and
  :meth:`~repro.distributed.timeline.TimelineModel.price`, the trainer's own
  pricer) and returns a flat metrics dict.  :func:`bound_point` shares its
  set-up but bounds the iteration time from the phase table instead of
  scheduling it, which is what the tuner prunes with.
* :class:`SweepCache` — memoizes the expensive layers (gradients,
  compression results and their result facts, collective models, dense
  baselines, whole point evaluations and their lower bounds, and the
  timeline's :class:`~repro.distributed.CollectiveCost`s and batched phase
  tables keyed on the collective model plus payload and density), so
  repeated points are priced once and a point bounds with only its own
  arithmetic.  Memoized results are bit-for-bit equal to
  memoization-off runs — every cached value is the output of a
  deterministic pure function.
* :func:`run_sweep` — evaluates every point of a spec in order, returning a
  :class:`SweepResult` of one flat record per point.  Each record carries
  the point it prices, so nothing downstream rebuilds it from the config.

The auto-tuner (:mod:`repro.harness.tuner`) searches this grid and answers
the production-facing query — "best config for my job on this fabric";
against a warm cache a query costs its cache lookups.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Callable, Mapping

import numpy as np

from ..compressors.registry import available_compressors, create_compressor
from ..gradients.synthetic import realistic_gradient
from ..pipeline import CompressionPipeline
from ..distributed.knobs import KNOB_CHECKS, KNOB_FIELDS, SimulationKnobs
from ..distributed.timeline import ResultFacts, TimelineModel, compute_time_for_overhead
from ..distributed.topology import ClusterTopology, CollectiveModel, get_topology
from .configs import get_benchmark, scale_bucket_bytes

#: Every knob a sweep point carries, in canonical order: the two compression
#: knobs, then the consolidated simulation knobs in
#: :data:`~repro.distributed.knobs.KNOB_FIELDS` (dataclass field) order.
#: Deriving the tail from the dataclass means a knob added to
#: :class:`~repro.distributed.knobs.SimulationKnobs` can never silently miss
#: the sweep grid.
SWEEP_KNOBS: tuple[str, ...] = ("compressor", "ratio", *KNOB_FIELDS)

#: Default value per knob for axes a spec does not sweep — the
#: :class:`~repro.distributed.knobs.SimulationKnobs` defaults, with three
#: sweep-specific overrides: the paper's densest ratio, the 4 MiB DDP bucket
#: budget, the strongest overlap policy and the two-level reference fabric
#: (a sweep prices bucketed schedules, so the trainer's unbucketed/serial
#: defaults would leave most axes nothing to bite on).
DEFAULT_KNOBS: dict = {
    "compressor": "topk",
    "ratio": 0.1,
    **SimulationKnobs().as_dict(),
    "bucket_bytes": 4 * 2**20,
    "overlap": "comm+compress",
    "topology": "ethernet-4x8",
}


@dataclass(frozen=True)
class WorkloadSpec:
    """One named workload a sweep plans for.

    ``dimension`` and ``comm_overhead`` are the full-size facts (Table 1
    style: gradient elements and the fraction of a dense baseline iteration
    spent communicating).  The evaluator compresses a ``proxy_elements``-sized
    seeded gradient and scales wire volume and compression cost back up by
    ``dimension / proxy_elements`` — the same proxy discipline every
    benchmark uses, which keeps a single point evaluation in the milliseconds
    while preserving the full-size compute/communication balance.
    """

    name: str
    dimension: int
    comm_overhead: float
    proxy_elements: int = 32768
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("workload name must be non-empty")
        if self.proxy_elements < 64:
            raise ValueError(f"proxy_elements must be >= 64, got {self.proxy_elements}")
        if self.dimension < self.proxy_elements:
            raise ValueError(
                f"dimension ({self.dimension}) must be >= proxy_elements "
                f"({self.proxy_elements})"
            )
        if not 0.0 < self.comm_overhead < 1.0:
            raise ValueError(f"comm_overhead must be in (0, 1), got {self.comm_overhead}")

    @classmethod
    def from_benchmark(cls, name: str, *, proxy_elements: int = 32768, seed: int = 0):
        """Build the workload matching a Table 1 benchmark's full-size facts."""
        config = get_benchmark(name)
        return cls(
            name=config.name,
            dimension=config.full_dimension,
            comm_overhead=config.comm_overhead,
            proxy_elements=proxy_elements,
            seed=seed,
        )

    @property
    def dimension_scale(self) -> float:
        return self.dimension / self.proxy_elements

    def proxy_bucket_bytes(self, bucket_bytes: int | None) -> int | None:
        """A full-size bucket budget rescaled to the proxy gradient (>= 4 bytes)."""
        if bucket_bytes is None:
            return None
        return scale_bucket_bytes(bucket_bytes, self.dimension_scale)


@dataclass(frozen=True)
class KnobConstraint:
    """Declarative implication between two knobs.

    Whenever ``knob`` takes a value outside ``inactive``, ``target`` must be
    one of ``allowed`` — e.g. "sparse dedup (any non-``None`` assumption)
    requires the hierarchical all-gather".  Points violating the implication
    are dropped from the expanded grid.
    """

    name: str
    knob: str
    inactive: tuple
    target: str
    allowed: tuple

    def __post_init__(self) -> None:
        for knob in self.reads:
            if knob not in SWEEP_KNOBS:
                raise ValueError(f"unknown knob {knob!r}; known: {list(SWEEP_KNOBS)}")

    @property
    def reads(self) -> tuple[str, str]:
        """The knobs :meth:`admits` looks at (see :meth:`SweepSpec.expand`)."""
        return (self.knob, self.target)

    def admits(self, config: Mapping) -> bool:
        if config[self.knob] in self.inactive:
            return True
        return config[self.target] in self.allowed


@dataclass(frozen=True)
class WorkerCountConstraint:
    """``backup_workers`` must leave at least one participant on the fabric.

    Cutting the ``k`` slowest workers only makes sense when the resolved
    topology has more than ``k`` workers: a single-worker "cluster" with
    ``backup_workers=1`` would drop its only gradient.  It ``reads`` two
    knobs, like :class:`KnobConstraint`, but checks a resolved-topology fact.
    """

    name: str = "backup-workers-fit-cluster"
    reads = ("backup_workers", "topology")

    def admits(self, config: Mapping) -> bool:
        backups, topology = config["backup_workers"], config["topology"]
        return backups == 0 or topology is None or _backups_fit(backups, _cluster(topology))


def _cluster(topology) -> ClusterTopology:
    """A point's cluster: its preset name resolved, or the topology it carries."""
    return get_topology(topology) if isinstance(topology, str) else topology


def _backups_fit(backup_workers: int, topology: ClusterTopology) -> bool:
    """Whether cutting ``backup_workers`` leaves a participant, as ``TrainerConfig`` requires."""
    return backup_workers < topology.num_workers


#: Structural implications every default sweep honours: only the hierarchical
#: all-gather has a per-node reduce point to deduplicate at, only its
#: multi-link phases can chunk-pipeline, and the fault-mitigation knobs only
#: act under their own sync policy (on a fabric big enough to cut from).
DEFAULT_CONSTRAINTS: tuple = (
    KnobConstraint(
        name="dedup-requires-hierarchical-allgather",
        knob="dedup_assumption",
        inactive=(None,),
        target="allgather_algorithm",
        allowed=("hierarchical",),
    ),
    KnobConstraint(
        name="chunk-pipelining-requires-hierarchical-allgather",
        knob="pipeline_chunks",
        inactive=(1,),
        target="allgather_algorithm",
        allowed=("hierarchical",),
    ),
    KnobConstraint(
        name="backup-workers-requires-backup-policy",
        knob="backup_workers",
        inactive=(0,),
        target="sync_policy",
        allowed=("backup-workers",),
    ),
    KnobConstraint(
        name="time-window-requires-time-window-policy",
        knob="time_window_factor",
        inactive=(None,),
        target="sync_policy",
        allowed=("time-window",),
    ),
    WorkerCountConstraint(),
)


@dataclass(frozen=True)
class SweepPoint:
    """One fully-resolved (workload, config) grid point.

    ``knobs`` carries every knob in :data:`SWEEP_KNOBS` order, which makes
    points hashable (deduplication, cache keys) and their ordering
    deterministic.
    """

    workload: str
    knobs: tuple[tuple[str, object], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.workload, self.knobs)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):  # re-hash on load: str hashes differ per process
        return (type(self), (self.workload, self.knobs))

    @property
    def config(self) -> dict:
        return dict(self.knobs)

    @cached_property
    def key(self) -> str:
        """Stable human-readable identity, e.g. for provenance traces."""
        settings = ",".join(f"{name}={value}" for name, value in self.knobs)
        return f"{self.workload}|{settings}"

    @classmethod
    def from_config(cls, workload: str, config: Mapping) -> "SweepPoint":
        """Build a point from a config mapping, filling defaults, in knob order."""
        unknown = set(config) - set(SWEEP_KNOBS)
        if unknown:
            raise ValueError(f"unknown knobs {sorted(unknown)}; known: {list(SWEEP_KNOBS)}")
        return cls(
            workload=workload,
            knobs=tuple((k, config.get(k, DEFAULT_KNOBS[k])) for k in SWEEP_KNOBS),
        )


def _validate_knob_value(knob: str, value) -> None:
    """Fail fast on invalid axis values at spec-construction time.

    The simulation knobs run :data:`~repro.distributed.knobs.KNOB_CHECKS`,
    the checks :class:`~repro.distributed.knobs.SimulationKnobs` runs.
    """
    if knob == "compressor":
        if value not in available_compressors():
            raise ValueError(
                f"unknown compressor {value!r}; known: {available_compressors()}"
            )
    elif knob == "ratio":
        if not 0.0 < float(value) <= 1.0:
            raise ValueError(f"ratio must be in (0, 1], got {value}")
    else:
        KNOB_CHECKS[knob](value)


@dataclass(frozen=True)
class SweepSpec:
    """Named workloads x a declarative knob grid, with constraints.

    ``axes`` maps knob names to the values to sweep; unswept knobs ride at
    their :data:`DEFAULT_KNOBS` value.  ``constraints`` is any iterable of
    objects with an ``admits(config) -> bool`` method (plain callables are
    also accepted); points any constraint rejects are dropped.  A constraint
    with a ``reads`` tuple of knob names is shown only those knobs.
    """

    workloads: tuple[WorkloadSpec, ...]
    axes: Mapping[str, tuple]
    constraints: tuple = DEFAULT_CONSTRAINTS

    def __post_init__(self) -> None:
        workloads = tuple(self.workloads)
        if not workloads:
            raise ValueError("need at least one workload")
        names = [w.name for w in workloads]
        if len(set(names)) != len(names):
            raise ValueError(f"workload names must be unique, got {names}")
        object.__setattr__(self, "workloads", workloads)
        axes = {name: tuple(values) for name, values in dict(self.axes).items()}
        unknown = set(axes) - set(SWEEP_KNOBS)
        if unknown:
            raise ValueError(f"unknown axes {sorted(unknown)}; known: {list(SWEEP_KNOBS)}")
        for name, values in axes.items():
            if not values:
                raise ValueError(f"axis {name!r} must list at least one value")
            for value in values:
                _validate_knob_value(name, value)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "constraints", tuple(self.constraints))

    def admits(self, config: Mapping) -> bool:
        """True when every constraint admits the full ``config``."""
        return all(getattr(c, "admits", c)(config) for c in self.constraints)

    def expand(self) -> list[SweepPoint]:
        """The constrained cross-product, deduplicated, in deterministic order.

        Workloads vary slowest, then knobs in :data:`SWEEP_KNOBS` order with
        each axis traversed as given.  Duplicate points (an axis listing a
        value twice) collapse to their first occurrence, as each axis is
        deduplicated before the product.  Each constraint runs once per
        distinct tuple of the knobs it ``reads``; the product drops those it rejects.
        """
        axes = [self.axes.get(knob, (DEFAULT_KNOBS[knob],)) for knob in SWEEP_KNOBS]
        grid = [tuple((k, v) for v in dict.fromkeys(axis)) for k, axis in zip(SWEEP_KNOBS, axes)]
        combos = list(itertools.product(*grid))
        for constraint in self.constraints:
            admits = getattr(constraint, "admits", constraint)
            positions = [SWEEP_KNOBS.index(k) for k in getattr(constraint, "reads", SWEEP_KNOBS)]
            # ``itemgetter`` of one position returns the item, not a 1-tuple.
            rejected = {
                pairs if len(pairs) > 1 else pairs[0]
                for pairs in itertools.product(*(grid[p] for p in positions))
                if not admits(dict(pairs))
            }
            if rejected:
                project = itemgetter(*positions)
                combos = [combo for combo in combos if project(combo) not in rejected]
        return [SweepPoint(workload.name, combo) for workload in self.workloads for combo in combos]


# -- memoization ---------------------------------------------------------------

_MISSING = object()


@dataclass
class SweepCache:
    """Layered memo for sweep evaluation, shared across points and queries.

    Each layer caches one deterministic pure function of its key, so cached
    and uncached evaluation are bit-for-bit identical; ``hits``/``misses``
    decompose cache-warm vs cache-cold throughput in the sweep benchmark.

    What a bound pays for follows the layers: a compression (and the
    :class:`~repro.distributed.timeline.ResultFacts` derived from it, in
    :attr:`facts`) once per compression key, a phase table (and its
    :attr:`~repro.distributed.topology.PhaseTable.reductions`, cached on the
    table) once per collective model, payloads and densities, and a point
    only the arithmetic that combines the two.
    """

    gradients: dict = field(default_factory=dict)
    compressions: dict = field(default_factory=dict)
    #: Per compression (and the timeline facts it is priced under), its
    #: :class:`~repro.distributed.timeline.ResultFacts`: what every point
    #: pricing or bounding that compression reads off it, derived once.
    facts: dict = field(default_factory=dict)
    #: One :class:`~repro.distributed.topology.CollectiveModel` per distinct
    #: collective setting: points share it, so the phase-table memo's key
    #: comparisons stop at identity.
    collectives: dict = field(default_factory=dict)
    collective_costs: dict = field(default_factory=dict)
    phase_tables: dict = field(default_factory=dict)
    baselines: dict = field(default_factory=dict)
    points: dict = field(default_factory=dict)
    #: Per point, its :func:`bound_point`, next to the evaluation in
    #: :attr:`points`.
    bounds: dict = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    def fetch(self, store: dict, key, build: Callable):
        value = store.get(key, _MISSING)  # one hash of the key on a hit
        if value is not _MISSING:
            self.hits += 1
            return value
        self.misses += 1
        value = store[key] = build()
        return value

    def fetch_collective(self, key, build: Callable):
        """The collective-pricing memo sweep timelines consult
        (:attr:`TimelineModel.memo`): phase tables in their own store,
        single collective costs in another."""
        store = self.phase_tables if key[1] == "table" else self.collective_costs
        return self.fetch(store, key, build)

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "points": len(self.points),
            "bounds": len(self.bounds),
            "compressions": len(self.compressions),
            "facts": len(self.facts),
            "collectives": len(self.collectives),
            "collective_costs": len(self.collective_costs),
            "phase_tables": len(self.phase_tables),
        }


#: Process-wide default cache.
_GLOBAL_CACHE = SweepCache()


def _active_cache(cache: SweepCache | None, memoize: bool) -> SweepCache | None:
    """The cache a query memoizes into: ``cache``, else the process-wide one, or none.

    ``memoize=False`` with a ``cache`` asks for two contradictory things and
    raises :class:`ValueError`.
    """
    if not memoize:
        if cache is not None:
            raise ValueError("memoize=False bypasses all caching; do not also pass a cache")
        return None
    return _GLOBAL_CACHE if cache is None else cache


# -- point evaluation ----------------------------------------------------------


def _proxy_gradient(workload: WorkloadSpec, cache: SweepCache | None) -> np.ndarray:
    key = (workload.proxy_elements, workload.seed)
    build = lambda: realistic_gradient(workload.proxy_elements, seed=workload.seed)  # noqa: E731
    if cache is None:
        return build()
    return cache.fetch(cache.gradients, key, build)


def _compression_key(workload: WorkloadSpec, config: Mapping) -> tuple:
    """What the compression of the point's proxy gradient depends on."""
    proxy_bucket = workload.proxy_bucket_bytes(config["bucket_bytes"])
    return (workload.proxy_elements, workload.seed, config["compressor"], proxy_bucket,
            config["ratio"])


def _compress_proxy(workload: WorkloadSpec, key: tuple, cache: SweepCache | None):
    """Compress the workload's proxy gradient as :func:`_compression_key` ``key`` says.

    A fresh compressor is built per (cache-miss) call so adaptive compressor
    state can never leak between points.
    """
    _, _, name, proxy_bucket, ratio = key

    def build():
        gradient = _proxy_gradient(workload, cache)
        compressor = create_compressor(name)
        if proxy_bucket is not None:
            compressor = CompressionPipeline(compressor, bucket_bytes=proxy_bucket)
        return compressor.compress(gradient, ratio)

    if cache is None:
        return build()
    return cache.fetch(cache.compressions, key, build)


def _result_facts(
    workload: WorkloadSpec, config: Mapping, timeline: TimelineModel, cache: SweepCache | None
) -> ResultFacts:
    """The compressed proxy's :class:`~repro.distributed.timeline.ResultFacts` under ``timeline``.

    Memoized per compression and the timeline facts they depend on (the
    sweep prices every point on the timeline's default device).
    """
    key = _compression_key(workload, config)
    build = lambda: timeline.result_facts([_compress_proxy(workload, key, cache)])  # noqa: E731
    if cache is None:
        return build()
    return cache.fetch(
        cache.facts, (*key, timeline.dimension_scale, timeline.compute_seconds), build
    )


def _collective(
    knobs: SimulationKnobs, topology: ClusterTopology, config: Mapping, cache: SweepCache | None
) -> CollectiveModel:
    """The point's collective model, one per distinct collective setting."""
    build = lambda: CollectiveModel.from_knobs(knobs, topology)  # noqa: E731
    if cache is None:
        return build()
    key = (
        config["topology"],
        config["allreduce_algorithm"],
        config["allgather_algorithm"],
        config["pipeline_chunks"],
        config["dedup_assumption"],
    )
    return cache.fetch(cache.collectives, key, build)


def _dense_baseline_seconds(
    workload: WorkloadSpec, config: Mapping, timeline: TimelineModel, cache: SweepCache | None
) -> float:
    key = (
        workload.dimension,
        workload.comm_overhead,
        workload.proxy_elements,
        config["topology"],
        config["allreduce_algorithm"],
        config["pipeline_chunks"],
    )
    build = lambda: timeline.baseline_iteration().total  # noqa: E731
    if cache is None:
        return build()
    return cache.fetch(cache.baselines, key, build)


def _point_timeline(workload: WorkloadSpec, point: SweepPoint, cache: SweepCache | None):
    """``(knobs, facts, timeline)``: what pricing and bounding a point share.

    The point's knobs validated as one
    :class:`~repro.distributed.knobs.SimulationKnobs` bundle, the timeline
    :meth:`TimelineModel.from_knobs
    <repro.distributed.timeline.TimelineModel.from_knobs>` builds for them,
    and the :class:`~repro.distributed.timeline.ResultFacts` of its compressed
    proxy gradient under that timeline.  A point without a topology, or
    whose ``backup_workers`` would cut every worker of its topology
    (``TrainerConfig`` rejects the same cut), raises :class:`ValueError`.
    """
    config = point.config
    knobs = SimulationKnobs(**{name: config[name] for name in KNOB_FIELDS})
    if knobs.topology is None:
        raise ValueError("a sweep point needs a topology: a preset name or a ClusterTopology")
    topology = _cluster(knobs.topology)
    if not _backups_fit(knobs.backup_workers, topology):
        raise ValueError(
            f"backup_workers ({knobs.backup_workers}) must leave at least one participant "
            f"out of the topology's {topology.num_workers} workers"
        )
    timeline = TimelineModel.from_knobs(
        knobs,
        _collective(knobs, topology, config, cache),
        compute_seconds=compute_time_for_overhead(
            topology.inter_node, topology.num_workers, workload.dimension, workload.comm_overhead
        ),
        model_dimension=workload.proxy_elements,
        dimension_scale=workload.dimension_scale,
        memo=None if cache is None else cache.fetch_collective,
    )
    return knobs, _result_facts(workload, config, timeline, cache), timeline


def bound_point(
    workload: WorkloadSpec, point: SweepPoint, *, cache: SweepCache | None = None
) -> float:
    """A sound lower bound on ``evaluate_point(...)["iteration_seconds"]``.

    Compresses the proxy and prices the phase table exactly as
    :func:`evaluate_point` would, then bounds the iteration with
    :meth:`TimelineModel.lower_bound
    <repro.distributed.timeline.TimelineModel.lower_bound>` instead of
    scheduling it.  Unbucketed points have no phase table and faulted points
    are priced by their sync policy, so neither has a bound: they get the
    trivial ``-inf``.  Memoized in :attr:`SweepCache.bounds`.
    """
    if cache is not None:
        bound = cache.bounds.get((workload, point))
        if bound is not None:
            cache.hits += 1
            return bound
    knobs, facts, timeline = _point_timeline(workload, point, cache)
    bound = None if knobs.faulted else timeline.lower_bound(facts)
    if bound is None:
        bound = -math.inf
    if cache is not None:
        cache.misses += 1
        cache.bounds[(workload, point)] = bound
    return bound


def evaluate_point(
    workload: WorkloadSpec, point: SweepPoint, *, cache: SweepCache | None = None
) -> dict:
    """Price one sweep point; returns a flat metrics dict.

    Deterministic in its inputs: the proxy gradient is seeded, compression
    and collective pricing are pure, and the schedule simulator is
    event-driven — which is what makes the memoized path bit-for-bit equal
    to a memoization-off run.

    The point's knobs are validated as one
    :class:`~repro.distributed.knobs.SimulationKnobs` bundle, so a point the
    trainer would reject (e.g. ``backup_workers=1`` under ``full-sync``, which
    only a spec without :data:`DEFAULT_CONSTRAINTS` can produce) raises
    :class:`ValueError` rather than being priced as something else.  The
    iteration is priced by :meth:`TimelineModel.price
    <repro.distributed.timeline.TimelineModel.price>`, exactly as the trainer
    prices one.

    When the knobs are :attr:`~repro.distributed.knobs.SimulationKnobs.faulted`,
    the point is additionally priced through the
    :mod:`~repro.distributed.faults` layer: worker 0 becomes the straggler
    (``straggler_severity`` x compute, ``link_degradation`` x link time), the
    remaining workers run at nominal rates, and the configured sync policy
    prices the barrier.  ``iteration_seconds``, ``dense_baseline_seconds`` and
    ``speedup_vs_dense`` then reflect the policy-priced times (the dense
    baseline suffers the same cluster, so the speedup compares like with
    like), while the component metrics and ``clean_iteration_seconds`` keep
    the nominal schedule.  Clean points skip this block entirely and their
    metrics are bit-for-bit the fault-free ones, with
    ``straggler_overhead == 1.0``.
    """
    if point.workload != workload.name:
        raise ValueError(
            f"point belongs to workload {point.workload!r}, not {workload.name!r}"
        )
    if cache is not None:
        cached = cache.points.get((workload, point))
        if cached is not None:
            cache.hits += 1
            return dict(cached)
    knobs, facts, timeline = _point_timeline(workload, point, cache)
    rates = knobs.straggler_profile(timeline.num_workers).rates() if knobs.faulted else None
    policy = knobs.build_sync_policy()
    timing, faulted = timeline.price(facts, rates, policy)
    [result] = facts.results
    baseline = _dense_baseline_seconds(workload, point.config, timeline, cache)
    metrics = {
        "iteration_seconds": timing.total,
        "serialized_seconds": timing.serialized,
        "overlap_saving": timing.overlap_saving,
        "compute_seconds": timing.compute,
        "compression_seconds": timing.compression,
        "communication_seconds": timing.communication,
        "dense_baseline_seconds": baseline,
        "speedup_vs_dense": baseline / timing.total if timing.total > 0.0 else float("inf"),
        "dedup_ratio": timing.dedup_ratio,
        "achieved_ratio": result.achieved_ratio,
        "num_buckets": int(result.metadata.get("num_buckets", 1)),
        "num_workers": timeline.num_workers,
        "clean_iteration_seconds": timing.total,
        "straggler_overhead": 1.0,
        "participating_workers": timeline.num_workers,
        "stragglers_cut": 0,
    }
    if faulted is not None:
        _, dense_faulted = timeline.price(None, rates, policy)
        seconds = faulted.iteration_seconds
        metrics["iteration_seconds"] = seconds
        metrics["dense_baseline_seconds"] = dense_faulted.iteration_seconds
        metrics["speedup_vs_dense"] = (
            dense_faulted.iteration_seconds / seconds if seconds > 0.0 else float("inf")
        )
        metrics["straggler_overhead"] = (
            seconds / timing.total if timing.total > 0.0 else 1.0
        )
        metrics["participating_workers"] = faulted.outcome.num_participating
        metrics["stragglers_cut"] = faulted.outcome.stragglers_cut
    if cache is not None:
        cache.misses += 1
        cache.points[(workload, point)] = dict(metrics)
    return metrics


# -- execution -----------------------------------------------------------------


@dataclass(frozen=True)
class SweepRecord:
    """One evaluated point: workload name, full config, flat metrics.

    ``point`` is the evaluated :class:`SweepPoint`, built from ``config`` when
    not passed; it takes no part in equality, which ``config`` already covers.
    """

    workload: str
    config: dict
    metrics: dict
    point: SweepPoint | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.point is None:
            object.__setattr__(self, "point", SweepPoint.from_config(self.workload, self.config))


@dataclass
class SweepResult:
    """All records of one sweep, in expansion order."""

    workloads: tuple[WorkloadSpec, ...]
    records: list[SweepRecord]


def run_sweep(
    spec: SweepSpec,
    *,
    memoize: bool = True,
    cache: SweepCache | None = None,
) -> SweepResult:
    """Expand ``spec`` and evaluate every point, in order.

    Points memoize into ``cache`` (default: the process-wide cache);
    ``memoize=False`` bypasses all caching, so passing a ``cache`` with it
    raises :class:`ValueError`.  Results are bit-for-bit identical either way.
    """
    by_name = {workload.name: workload for workload in spec.workloads}
    active = _active_cache(cache, memoize)
    records = [
        SweepRecord(p.workload, p.config, evaluate_point(by_name[p.workload], p, cache=active), p)
        for p in spec.expand()
    ]
    return SweepResult(workloads=spec.workloads, records=records)
