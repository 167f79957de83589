"""Iteration-time model: compute + compression + communication.

The paper's speed-up and throughput numbers come from wall-clock iteration
times on real hardware; the simulator reconstructs them from three priced
components:

* ``compute``   — forward/backward time, a per-benchmark constant derived from
  Table 1's communication-overhead fraction (the fraction of the baseline
  iteration spent communicating),
* ``compression`` — the device cost model applied to the slowest worker's
  operation trace (workers compress in parallel, the ring waits for the last),
* ``communication`` — the network model applied to the gradient payload
  (dense all-reduce for the baseline, sparse all-gather otherwise).

How the components compose is governed by the *overlap policy*.  The old
closed-form sum survives as ``overlap="none"``; with ``"comm"`` or
``"comm+compress"`` the iteration is priced by the event-driven schedule
simulator (:func:`~repro.distributed.schedule.simulate_iteration_arrays`),
which overlaps bucket *i*'s all-gather with bucket *i+1*'s compression (and,
for ``"comm+compress"``, with the tail of backpropagation) the way
DDP/Horovod stacks actually run.  Bucketed results are priced as one
``(bucket, phase)`` :class:`~repro.distributed.topology.PhaseTable` and
scheduled from it; unbucketed results price one single-payload all-gather and
carry no schedule.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from ..compressors.base import CompressionResult
from ..perfmodel.costs import DeviceProfile, distribute_cost
from ..perfmodel.device import GPU_V100
from ..tensor.sparse import FLOAT_BYTES, INDEX_BYTES
from .faults import FaultedIteration, FullSync, SyncPolicy, WorkerRates, price_iteration
from .knobs import SimulationKnobs
from .network import NetworkModel
from .schedule import (
    ScheduleArrays,
    ready_times_from_fractions,
    simulate_iteration_arrays,
    validate_cross_bucket,
    validate_duration,
    validate_overlap,
    validate_rate,
)
from .topology import ClusterTopology, CollectiveModel, PhaseTable, SparseAggregateModel


def _payload_density(payload_bytes: float, dense_elements: float) -> float | None:
    """Non-zero fraction a sparse (index, value) payload covers of its dense span.

    Returns ``None`` (dedup unavailable) for empty payloads or unknown spans.
    """
    if payload_bytes <= 0.0 or dense_elements <= 0:
        return None
    elements = payload_bytes / (FLOAT_BYTES + INDEX_BYTES)
    return min(1.0, elements / dense_elements)


def _table_dedup_ratio(table: PhaseTable) -> float:
    """Per-bucket dedup ratios aggregated by wire volume.

    Replays the per-cost arithmetic on the table's rows — Python sums in
    phase order (absent phases add an exact ``0.0``), then the weighted
    mean — so the result is bit-identical to weighting each bucket's
    :class:`~repro.distributed.topology.CollectiveCost` by its volume.
    """
    weights = [sum(row) for row in table.volumes.tolist()]
    total = sum(weights)
    if total <= 0.0:
        return 1.0
    ratios = table.dedup_ratios.tolist()
    return float(sum(w * r for w, r in zip(weights, ratios)) / total)


def _bucket_layout(metadata: dict, num_buckets: int) -> tuple[list, list]:
    """Bucket sizes and gradient-ready fractions for scheduling, with fallbacks.

    Sizes fall back to an equal split when the layout is unknown; fractions
    fall back to reverse-order readiness derived from the sizes (backprop
    fills the flat gradient back-to-front, so bucket *i* is ready once all
    elements from its start offset onwards have gradients).
    """
    sizes = metadata.get("bucket_sizes")
    if sizes is None or len(sizes) != num_buckets:
        sizes = [1] * num_buckets  # equal split when the layout is unknown
    fractions = metadata.get("bucket_ready_fractions")
    if fractions is None or len(fractions) != num_buckets:
        total = float(sum(sizes))
        acc = 0.0
        fractions = []
        for size in sizes:
            fractions.append((total - acc) / total if total > 0.0 else 1.0)
            acc += size
    return sizes, fractions


@dataclass(frozen=True)
class IterationTiming:
    """Simulated duration of one synchronous training iteration (seconds).

    ``serialized`` is always the flat component sum; ``total`` is the
    critical-path time of the attached event schedule when an overlap policy
    produced one, and equals ``serialized`` otherwise.
    """

    compute: float
    compression: float
    communication: float
    update: float = 0.0
    overlap: str = "none"
    schedule: ScheduleArrays | None = None
    #: Payload-weighted achieved sparse-dedup ratio across the iteration's
    #: collectives (concatenated / deduplicated node-aggregate size); 1.0
    #: when no dedup model is configured or nothing could be deduplicated.
    dedup_ratio: float = 1.0

    @property
    def cross_bucket_pipeline(self) -> bool:
        """True when the attached schedule placed buckets on per-link network
        lanes (cross-bucket pipelining) instead of one serial lane."""
        return self.schedule is not None and self.schedule.cross_bucket

    @property
    def serialized(self) -> float:
        """The ``overlap="none"`` component sum."""
        return self.compute + self.compression + self.communication + self.update

    @property
    def total(self) -> float:
        if self.schedule is not None:
            return self.schedule.iteration_seconds
        return self.serialized

    @property
    def overlap_saving(self) -> float:
        """Fraction of the serialised iteration saved by overlapping."""
        if self.serialized <= 0.0:
            return 0.0
        return 1.0 - self.total / self.serialized


@dataclass(frozen=True)
class TimelineModel:
    """Prices one iteration of synchronous data-parallel training.

    Communication is priced by the collective-algorithm layer
    (:class:`~repro.distributed.topology.CollectiveModel`).  When no explicit
    ``collective`` is given, a degenerate single-level model over ``network``
    is built — which reproduces the pre-topology closed forms exactly.

    The trainer and the sweep planner both build their timeline with
    :meth:`from_knobs` and price iterations with :meth:`price`, so the two
    cannot drift apart.
    """

    network: NetworkModel
    device: DeviceProfile
    compute_seconds: float
    num_workers: int
    model_dimension: int
    update_seconds: float = 0.0
    #: Scale factor mapping the proxy model's gradient dimension to the
    #: full-size model of Table 1 (wire volume and compression cost both scale
    #: linearly in the dimension).
    dimension_scale: float = 1.0
    #: Default overlap policy for :meth:`compressed_iteration` — ``"none"``
    #: (serial closed-form sum), ``"comm"`` (communication overlaps
    #: compute/compression) or ``"comm+compress"`` (compression additionally
    #: overlaps backprop at per-bucket gradient-ready times).
    overlap: str = "none"
    #: Topology + collective algorithms pricing every collective.  ``None``
    #: builds the degenerate single-level model over ``network``; an explicit
    #: model is the sole source of communication prices (``network`` is then
    #: not read).
    collective: CollectiveModel | None = None
    #: Schedule buckets on per-link network lanes so bucket *i+1*'s intra-node
    #: phase overlaps bucket *i*'s inter-node phase (see
    #: :func:`~repro.distributed.schedule.simulate_iteration_arrays`).
    #: ``False`` keeps the serial whole-occupancy network lane.
    cross_bucket_pipeline: bool = False
    #: Optional collective-pricing memo, a ``fetch(key, build)`` callable.
    #: Keys are ``(collective, kind, *payload)`` on the frozen
    #: :class:`CollectiveModel`, so one memo serves every timeline sharing a
    #: fabric.  Memoized prices are bit-for-bit the unmemoized ones.
    memo: Callable | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        validate_duration("compute_seconds", self.compute_seconds)
        validate_duration("update_seconds", self.update_seconds)
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.model_dimension < 1:
            raise ValueError("model_dimension must be >= 1")
        if not math.isfinite(self.dimension_scale) or self.dimension_scale <= 0.0:
            raise ValueError(
                f"dimension_scale must be positive and finite, got {self.dimension_scale!r}"
            )
        validate_overlap(self.overlap)
        validate_cross_bucket(self.cross_bucket_pipeline)
        if self.collective is None:
            object.__setattr__(
                self, "collective", CollectiveModel.flat(self.network, self.num_workers)
            )
        elif self.collective.num_workers != self.num_workers:
            raise ValueError(
                f"collective topology has {self.collective.num_workers} workers "
                f"but the timeline models {self.num_workers}"
            )

    @classmethod
    def from_knobs(
        cls,
        knobs: SimulationKnobs,
        topology: ClusterTopology,
        *,
        compute_seconds: float,
        model_dimension: int,
        dimension_scale: float,
        device: DeviceProfile = GPU_V100,
        memo: Callable | None = None,
    ) -> "TimelineModel":
        """The timeline ``knobs`` describe over the resolved ``topology``.

        The collective model takes the bundle's algorithm, chunking and dedup
        knobs; the timeline takes its overlap and cross-bucket policies.
        ``memo`` is passed through to the :attr:`memo` field.
        """
        dedup = knobs.dedup_assumption
        collective = CollectiveModel(
            topology=topology,
            allreduce_algorithm=knobs.allreduce_algorithm,
            allgather_algorithm=knobs.allgather_algorithm,
            pipeline_chunks=knobs.pipeline_chunks,
            allgather_dedup=None if dedup is None else SparseAggregateModel(dedup),
        )
        return cls(
            network=topology.inter_node,
            device=device,
            compute_seconds=compute_seconds,
            num_workers=topology.num_workers,
            model_dimension=model_dimension,
            dimension_scale=dimension_scale,
            overlap=knobs.overlap,
            collective=collective,
            cross_bucket_pipeline=knobs.cross_bucket_pipeline,
            memo=memo,
        )

    def price(
        self,
        worker_results: list[CompressionResult] | None,
        rates: WorkerRates | None = None,
        policy: SyncPolicy | None = None,
    ) -> tuple[IterationTiming, FaultedIteration | None]:
        """Price one iteration: the nominal timing and, under faults, the verdict.

        ``worker_results`` prices the compressed iteration; ``None`` prices
        the dense baseline.  Without ``rates`` the second item is ``None``.
        With ``rates``, every active worker's iteration is priced at its lane
        rates and ``policy`` (default: full sync) prices the barrier; the
        nominal (1.0, 1.0) pair reuses the nominal timing, so those workers
        finish bit-for-bit at ``timing.total``.
        """
        if worker_results is None:
            iteration = self.baseline_iteration
        else:
            iteration = partial(self.compressed_iteration, worker_results)
        timing = iteration()
        if rates is None:
            return timing, None

        def finish(compute_scale: float, comm_scale: float) -> float:
            if compute_scale == 1.0 and comm_scale == 1.0:
                return timing.total
            return iteration(compute_scale=compute_scale, comm_scale=comm_scale).total

        return timing, price_iteration(finish, rates, FullSync() if policy is None else policy)

    def baseline_iteration(
        self, *, compute_scale: float = 1.0, comm_scale: float = 1.0
    ) -> IterationTiming:
        """Iteration timing with no compression (dense all-reduce).

        The dense baseline ships one fused buffer, so there is no per-bucket
        structure to overlap and every policy prices it identically.

        ``compute_scale``/``comm_scale`` price the iteration at one worker's
        fault-layer lane rates (:mod:`repro.distributed.faults`).  1.0 is
        nominal, and multiplying by exactly 1.0 is an IEEE identity, so the
        default call is bit-for-bit the unscaled price.
        """
        compute_scale = validate_rate("compute_scale", compute_scale)
        comm_scale = validate_rate("comm_scale", comm_scale)
        dense_bytes = self.model_dimension * self.dimension_scale * FLOAT_BYTES
        comm = self._memoized(
            lambda: self.collective.allreduce_cost(dense_bytes), "allreduce", dense_bytes
        ).total
        return IterationTiming(
            compute=self.compute_seconds * compute_scale,
            compression=0.0,
            communication=comm * comm_scale,
            update=self.update_seconds * compute_scale,
        )

    def compressed_iteration(
        self,
        worker_results: list[CompressionResult],
        *,
        overlap: str | None = None,
        cross_bucket_pipeline: bool | None = None,
        compute_scale: float = 1.0,
        comm_scale: float = 1.0,
    ) -> IterationTiming:
        """Iteration timing for a set of per-worker compression results.

        When every worker's result carries per-bucket payload sizes (the
        bucketed pipeline records them in ``metadata["bucket_payload_bytes"]``),
        communication is priced bucket by bucket: one all-gather per bucket,
        each bounded by the slowest worker's payload for that bucket.  With an
        overlap policy other than ``"none"``, the per-bucket jobs are placed on
        compute/network lanes by the event-driven schedule simulator and
        ``total`` becomes the critical-path time; ``overlap="none"`` keeps the
        exact closed-form sum of the pre-schedule timeline.

        ``cross_bucket_pipeline`` overrides the model's default for this call:
        ``True`` schedules the buckets' per-link collective phases on
        independent fabric lanes so consecutive buckets overlap across links.

        ``compute_scale``/``comm_scale`` price the iteration at one worker's
        fault-layer lane rates: the compute lane (backprop, compression
        stream, update) is slowed by ``compute_scale`` and the network lane by
        ``comm_scale``, both in the reported components and inside the event
        schedule.  The nominal (1.0, 1.0) call is bit-for-bit the unscaled
        price (the scheduler skips its scaling branch and ``x * 1.0`` is an
        IEEE identity).
        """
        if not worker_results:
            raise ValueError("need at least one worker result")
        policy = validate_overlap(self.overlap if overlap is None else overlap)
        cross_bucket = (
            self.cross_bucket_pipeline if cross_bucket_pipeline is None else cross_bucket_pipeline
        )
        compute_scale = validate_rate("compute_scale", compute_scale)
        comm_scale = validate_rate("comm_scale", comm_scale)
        compression = max(self.device.trace_cost(self._scaled_ops(r)) for r in worker_results)
        table = self._phase_table(worker_results)
        schedule = None
        if table is None:
            slowest = max(worker_results, key=lambda r: r.sparse.payload_bytes())
            payload = slowest.sparse.payload_bytes() * self.dimension_scale
            density = slowest.sparse.density or None
            cost = self._memoized(
                lambda: self.collective.allgather_cost(payload, density=density),
                "allgather", payload, density,
            )
            comm = cost.total
            dedup_ratio = cost.dedup_ratio
        else:
            comm = float(sum(table.totals.tolist()))
            dedup_ratio = _table_dedup_ratio(table)
            if policy != "none":
                schedule = self._schedule(
                    worker_results[0].metadata, table, compression, policy, cross_bucket,
                    compute_scale, comm_scale,
                )
        return IterationTiming(
            compute=self.compute_seconds * compute_scale,
            compression=compression * compute_scale,
            communication=comm * comm_scale,
            update=self.update_seconds * compute_scale,
            overlap=policy,
            schedule=schedule,
            dedup_ratio=dedup_ratio,
        )

    def schedule_iteration(
        self,
        worker_results: list[CompressionResult],
        *,
        compression_seconds: float | None = None,
        overlap: str | None = None,
        cross_bucket_pipeline: bool | None = None,
    ) -> ScheduleArrays:
        """Build just the iteration schedule for bucketed worker results.

        This is the scheduler hot path the throughput benchmark times:
        pricing the per-bucket collectives and placing them on the lanes.
        ``compression_seconds`` may be passed precomputed (e.g. once per
        sweep) to keep device-model pricing out of the timed region.  Raises
        for ``overlap="none"`` (no schedule exists there) and for unbucketed
        worker results.
        """
        if not worker_results:
            raise ValueError("need at least one worker result")
        policy = validate_overlap(self.overlap if overlap is None else overlap)
        if policy == "none":
            raise ValueError(
                'overlap="none" builds no schedule; use compressed_iteration for the flat sum'
            )
        cross_bucket = (
            self.cross_bucket_pipeline if cross_bucket_pipeline is None else cross_bucket_pipeline
        )
        if compression_seconds is None:
            compression_seconds = max(
                self.device.trace_cost(self._scaled_ops(r)) for r in worker_results
            )
        table = self._phase_table(worker_results)
        if table is None:
            raise ValueError("worker results carry no per-bucket payloads; nothing to schedule")
        return self._schedule(
            worker_results[0].metadata, table, compression_seconds, policy, cross_bucket
        )

    def bucket_communication_times(
        self, worker_results: list[CompressionResult]
    ) -> list[float] | None:
        """Per-bucket all-gather times, or ``None`` if the results are unbucketed."""
        table = self._phase_table(worker_results)
        if table is None:
            return None
        return table.totals.tolist()

    def _phase_table(self, worker_results: list[CompressionResult]) -> PhaseTable | None:
        """Price every bucket's all-gather as one table (``None`` if unbucketed).

        Bucket ``i`` of the synchronous all-gather completes when the slowest
        worker's bucket-``i`` payload has made it around the ring, so each
        bucket is priced at the per-bucket maximum across workers.

        All workers compress replicas of the same gradient, so their results
        must agree on the bucket structure: a mix of bucketed and unbucketed
        results, or differing bucket counts, indicates a mis-assembled worker
        pool — those fall back to single-payload pricing with a
        :class:`RuntimeWarning` instead of silently under-pricing.  Python's
        warning registry shows a repeated warning once per calling location.

        Per-bucket payload density feeds the sparse-dedup model: the
        dimension scale multiplies payloads and bucket sizes alike, so the
        density is scale-free and computed from the proxy-sized metadata.
        """
        payload_lists = [r.metadata.get("bucket_payload_bytes") for r in worker_results]
        missing = sum(p is None for p in payload_lists)
        if missing == len(payload_lists):
            return None  # plain unbucketed compressors: nothing to warn about
        counts = {len(p) for p in payload_lists if p is not None}
        if missing or len(counts) != 1:
            if missing:
                reason = (
                    f"{missing}/{len(payload_lists)} worker results lack "
                    "metadata['bucket_payload_bytes'] (mixed bucketed/unbucketed workers)"
                )
            else:
                reason = f"worker results disagree on the number of buckets: {sorted(counts)}"
            warnings.warn(
                "falling back to single-payload all-gather pricing: " + reason,
                RuntimeWarning,
                stacklevel=3,
            )
            return None
        per_bucket = [max(column) for column in zip(*payload_lists)]
        sizes = worker_results[0].metadata.get("bucket_sizes")
        if sizes is None or len(sizes) != len(per_bucket):
            sizes = [0] * len(per_bucket)  # unknown layout: density (and dedup) unavailable
        densities = [_payload_density(payload, size) for payload, size in zip(per_bucket, sizes)]
        payloads = np.asarray(per_bucket, dtype=float) * self.dimension_scale
        return self._memoized(
            lambda: self.collective.allgather_phase_table(payloads, densities),
            "table", tuple(payloads.tolist()), tuple(densities),
        )

    def _memoized(self, build: Callable, kind: str, *payload):
        """``build()``, through :attr:`memo` when one is set."""
        if self.memo is None:
            return build()
        return self.memo((self.collective, kind, *payload), build)

    def _schedule(
        self,
        metadata: dict,
        table: PhaseTable,
        compression_seconds: float,
        policy: str,
        cross_bucket_pipeline: bool,
        compute_scale: float = 1.0,
        comm_scale: float = 1.0,
    ) -> ScheduleArrays:
        """Place per-bucket compress/all-gather jobs on the event timeline."""
        sizes, fractions = _bucket_layout(metadata, table.num_buckets)
        return simulate_iteration_arrays(
            ready_seconds=ready_times_from_fractions(fractions, self.compute_seconds),
            compress_seconds=distribute_cost(compression_seconds, sizes),
            phase_seconds=table.seconds,
            phase_names=table.names,
            phase_links=table.links,
            phase_offsets=table.offsets,
            phase_mask=table.mask,
            compute_seconds=self.compute_seconds,
            overlap=policy,
            update_seconds=self.update_seconds,
            cross_bucket_pipeline=cross_bucket_pipeline,
            compute_scale=compute_scale,
            comm_scale=comm_scale,
        )

    def _scaled_ops(self, result: CompressionResult):
        if self.dimension_scale == 1.0:
            return result.ops
        from ..perfmodel.costs import scale_ops

        return scale_ops(result.ops, self.dimension_scale)

    def communication_overhead_fraction(self) -> float:
        """Fraction of the baseline iteration spent communicating (Table 1's last column)."""
        baseline = self.baseline_iteration()
        if baseline.total == 0.0:
            return 0.0
        return baseline.communication / baseline.total


def compute_time_for_overhead(
    network: NetworkModel,
    num_workers: int,
    model_dimension: int,
    comm_overhead_fraction: float,
) -> float:
    """Back out the per-iteration compute time implied by a communication-overhead fraction.

    Table 1 reports, for each benchmark, the fraction of iteration time the
    baseline spends communicating.  Given the network model and model size,
    this returns the forward/backward compute time that produces that
    fraction — which is how the simulator matches each proxy benchmark's
    compute/communication balance to the paper's real one.
    """
    if not 0.0 < comm_overhead_fraction < 1.0:
        raise ValueError("comm_overhead_fraction must be in (0, 1)")
    dense_bytes = model_dimension * FLOAT_BYTES
    comm = network.allreduce_time(dense_bytes, num_workers)
    return comm * (1.0 - comm_overhead_fraction) / comm_overhead_fraction
