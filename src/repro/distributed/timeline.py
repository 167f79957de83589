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
DDP/Horovod stacks actually run.  Every pool is priced as one
``(bucket, phase)`` :class:`~repro.distributed.schedule.PhaseTable` and
scheduled from it: an unbucketed pool is the one-bucket case, ready at the end
of the backward pass.  A worker pool that mixes bucketed and unbucketed
results, or whose results disagree on the bucket count, raises
:class:`ValueError`.  What pricing reads off a pool's results (per-bucket
payloads and densities, ready and compression times) is derived once, as
:class:`ResultFacts`, which every pricing method also accepts in place of the
results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Sequence

import numpy as np

from ..compressors.base import CompressionResult
from ..perfmodel.costs import DeviceProfile, distribute_cost, scale_ops
from ..perfmodel.device import GPU_V100
from ..tensor.sparse import FLOAT_BYTES, INDEX_BYTES
from .faults import FaultedIteration, FullSync, SyncPolicy, WorkerRates, price_iteration
from .knobs import SimulationKnobs
from .network import NetworkModel
from .schedule import (
    PhaseTable,
    ScheduleArrays,
    iteration_lower_bound,
    ready_times_from_fractions,
    simulate_iteration_arrays,
    validate_cross_bucket,
    validate_duration,
    validate_overlap,
    validate_rate,
)
from .topology import CollectiveModel


def _payload_densities(payload_bytes: np.ndarray, dense_elements) -> np.ndarray:
    """(B,) the non-zero fraction each sparse (index, value) payload covers of its dense span.

    NaN (dedup unavailable) for an empty payload.
    """
    elements = payload_bytes / (FLOAT_BYTES + INDEX_BYTES)
    densities = np.minimum(1.0, elements / np.asarray(dense_elements, dtype=float))
    densities[payload_bytes <= 0.0] = math.nan
    return densities


def _table_dedup_ratio(table: PhaseTable) -> float:
    """Per-bucket dedup ratios aggregated by wire volume.

    Replays the per-cost arithmetic on the table's rows — Python sums in
    phase order (absent phases add an exact ``0.0``), then the weighted
    mean — so the result is bit-identical to weighting each bucket's
    :class:`~repro.distributed.topology.CollectiveCost` by its volume.  One
    row is its cost's own ratio: weighting it, ``(w * r) / w``, can round.
    """
    weights = [sum(row) for row in table.volumes.tolist()]
    total = sum(weights)
    if total <= 0.0:
        return 1.0
    ratios = table.dedup_ratios.tolist()
    if len(ratios) == 1:
        return float(ratios[0])
    return float(sum(w * r for w, r in zip(weights, ratios)) / total)


@dataclass(frozen=True, eq=False)
class ResultFacts:
    """What pricing reads off one iteration's worker results, derived once.

    :meth:`TimelineModel.result_facts` derives it, and every timeline method
    that prices a compressed iteration accepts it in place of the results:
    the trainer derives it once per iteration, the sweep planner memoizes it
    per compression (:class:`~repro.harness.sweep.SweepCache`), so the facts
    of a pool of results are paid once however many points price or bound
    it.

    The facts depend on the results and on the timeline's ``basis``: its
    device (the trace cost), dimension scale (payloads and trace sizes) and
    compute seconds (ready times).  A timeline with another basis rejects
    them.  An unbucketed pool is described as one bucket.  The ready and
    compression times are derived on first use.
    """

    results: tuple[CompressionResult, ...]
    #: ``(device, dimension_scale, compute_seconds)`` the facts were derived under.
    basis: tuple
    #: (B,) per-bucket all-gather payload bytes: the slowest worker's bucket
    #: payload, dimension-scaled.
    payloads: np.ndarray
    #: Per-bucket payload densities (``None`` entries disable dedup there).
    densities: tuple
    #: The phase table's memo payload: the payloads and densities (NaN for
    #: ``None``) as bytes.
    table_key: bytes
    #: (B,) per-bucket gradient-ready fractions of the backward pass.
    ready_fractions: Sequence[float]
    #: (B,) weights the compression time is spread over the buckets by: the
    #: bucket sizes.  An unbucketed pool's one bucket weighs 1.0, which hands
    #: it the whole time exactly (``c * d / d`` is not always ``c``).
    compress_weights: Sequence[float]

    @cached_property
    def compression_seconds(self) -> float:
        """The slowest worker's compression cost: the ring waits for the last."""
        device, scale, _ = self.basis
        if scale == 1.0:
            return max(device.trace_cost(r.ops) for r in self.results)
        return max(device.trace_cost(scale_ops(r.ops, scale)) for r in self.results)

    @cached_property
    def ready_seconds(self) -> np.ndarray:
        """(B,) per-bucket gradient-ready times within the backward pass."""
        return _frozen(ready_times_from_fractions(self.ready_fractions, self.basis[2]))

    @cached_property
    def compress_seconds(self) -> np.ndarray:
        """(B,) the compression cost spread over the buckets by size."""
        return _frozen(self.compress_seconds_for(self.compression_seconds))

    def compress_seconds_for(self, compression_seconds: float) -> np.ndarray:
        """(B,) ``compression_seconds`` spread over the buckets by size."""
        return distribute_cost(compression_seconds, self.compress_weights)


def _frozen(values) -> np.ndarray:
    """A read-only float array: result facts are shared by every point that reads them."""
    array = np.asarray(values, dtype=float)
    array.flags.writeable = False
    return array


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
    (:class:`~repro.distributed.topology.CollectiveModel`), the one source of
    the fabric and the worker count; ``CollectiveModel.flat(network, n)`` is
    the degenerate single-level model, which reproduces the pre-topology
    closed forms exactly.  The overlap and cross-bucket policies are fields
    too: to compare policies, ``dataclasses.replace`` the timeline.

    The trainer and the sweep planner both build their timeline with
    :meth:`from_knobs`, derive a worker pool's facts with :meth:`result_facts`
    and price iterations with :meth:`price`, so the two cannot drift apart.
    """

    #: Topology + collective algorithms pricing every collective.
    collective: CollectiveModel
    device: DeviceProfile
    compute_seconds: float
    model_dimension: int
    update_seconds: float = 0.0
    #: Scale factor mapping the proxy model's gradient dimension to the
    #: full-size model of Table 1 (wire volume and compression cost both scale
    #: linearly in the dimension).
    dimension_scale: float = 1.0
    #: Overlap policy of :meth:`compressed_iteration` — ``"none"``
    #: (serial closed-form sum), ``"comm"`` (communication overlaps
    #: compute/compression) or ``"comm+compress"`` (compression additionally
    #: overlaps backprop at per-bucket gradient-ready times).
    overlap: str = "none"
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
        if not isinstance(self.collective, CollectiveModel):
            raise ValueError(f"collective must be a CollectiveModel, got {self.collective!r}")
        validate_duration("compute_seconds", self.compute_seconds)
        validate_duration("update_seconds", self.update_seconds)
        if self.model_dimension < 1:
            raise ValueError("model_dimension must be >= 1")
        if not math.isfinite(self.dimension_scale) or self.dimension_scale <= 0.0:
            raise ValueError(
                f"dimension_scale must be positive and finite, got {self.dimension_scale!r}"
            )
        validate_overlap(self.overlap)
        validate_cross_bucket(self.cross_bucket_pipeline)

    @property
    def num_workers(self) -> int:
        return self.collective.num_workers

    @classmethod
    def from_knobs(
        cls,
        knobs: SimulationKnobs,
        collective: CollectiveModel,
        *,
        compute_seconds: float,
        model_dimension: int,
        dimension_scale: float,
        device: DeviceProfile = GPU_V100,
        memo: Callable | None = None,
    ) -> "TimelineModel":
        """The timeline ``knobs`` describe over ``collective``.

        ``collective`` is :meth:`CollectiveModel.from_knobs
        <repro.distributed.topology.CollectiveModel.from_knobs>` of the same
        bundle (it takes the algorithm, chunking and dedup knobs); the
        timeline takes the overlap and cross-bucket policies.  ``memo`` is
        passed through to the :attr:`memo` field.
        """
        return cls(
            collective=collective,
            device=device,
            compute_seconds=compute_seconds,
            model_dimension=model_dimension,
            dimension_scale=dimension_scale,
            overlap=knobs.overlap,
            cross_bucket_pipeline=knobs.cross_bucket_pipeline,
            memo=memo,
        )

    def price(
        self,
        worker_results: Sequence[CompressionResult] | ResultFacts | None,
        rates: WorkerRates | None = None,
        policy: SyncPolicy | None = None,
    ) -> tuple[IterationTiming, FaultedIteration | None]:
        """Price one iteration: the nominal timing and, under faults, the verdict.

        ``worker_results`` (or their :class:`ResultFacts`) prices the
        compressed iteration; ``None`` prices the dense baseline.  Without
        ``rates`` the second item is ``None``.  With ``rates``, every active
        worker's iteration is priced at its lane rates and ``policy``
        (default: full sync) prices the barrier; the nominal (1.0, 1.0) pair
        reuses the nominal timing, so those workers finish bit-for-bit at
        ``timing.total``.  ``rates`` must describe this timeline's workers,
        or :class:`ValueError` is raised.
        """
        if rates is not None and rates.num_workers != self.num_workers:
            raise ValueError(f"rates describe {rates.num_workers} workers, not {self.num_workers}")
        if worker_results is None:
            iteration = self.baseline_iteration
        else:
            iteration = partial(self.compressed_iteration, self._facts(worker_results))
        timing = iteration()
        if rates is None:
            return timing, None

        def finish(compute_scale: float, comm_scale: float) -> float:
            if compute_scale == 1.0 and comm_scale == 1.0:
                return timing.total
            return iteration(compute_scale=compute_scale, comm_scale=comm_scale).total

        return timing, price_iteration(finish, rates, FullSync() if policy is None else policy)

    def lower_bound(self, worker_results: Sequence[CompressionResult] | ResultFacts) -> float:
        """A sound lower bound on the nominal ``compressed_iteration(...).total``.

        Simulates nothing: :func:`~repro.distributed.schedule.iteration_lower_bound`
        over the scheduler's own inputs, which combines the (memoized) phase
        table's cached :attr:`~repro.distributed.schedule.PhaseTable.reductions`
        with the results' ready and compression times.  A bound thus pays
        only for what is its own: given :class:`ResultFacts`, the results'
        facts are paid once per compression, and a memoized table's
        reductions once per table.
        ``overlap="none"`` prices the flat sum, which is the serial-lane
        schedule, so its bound is the flat sum (deflated).  Unbucketed
        results are bounded as their one-bucket table.
        """
        facts = self._facts(worker_results)
        return iteration_lower_bound(
            table=self._phase_table(facts),
            ready_seconds=facts.ready_seconds,
            compress_seconds=facts.compress_seconds,
            compute_seconds=self.compute_seconds,
            overlap=self.overlap,
            update_seconds=self.update_seconds,
            cross_bucket_pipeline=self.cross_bucket_pipeline and self.overlap != "none",
        )

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
        worker_results: Sequence[CompressionResult] | ResultFacts,
        *,
        compute_scale: float = 1.0,
        comm_scale: float = 1.0,
    ) -> IterationTiming:
        """Iteration timing for a set of per-worker compression results.

        Communication is priced bucket by bucket from the pool's phase table:
        one all-gather per bucket, each bounded by the slowest worker's
        payload for that bucket (bucketed results record their payloads in
        ``metadata["bucket_payload_bytes"]``; an unbucketed pool is one
        bucket of the slowest worker's whole payload).  With an
        overlap policy other than ``"none"``, the per-bucket jobs are placed on
        compute/network lanes by the event-driven schedule simulator and
        ``total`` becomes the critical-path time; ``overlap="none"`` keeps the
        exact closed-form sum of the pre-schedule timeline.

        ``compute_scale``/``comm_scale`` price the iteration at one worker's
        fault-layer lane rates: the compute lane (backprop, compression
        stream, update) is slowed by ``compute_scale`` and the network lane by
        ``comm_scale``, both in the reported components and inside the event
        schedule.  The nominal (1.0, 1.0) call is bit-for-bit the unscaled
        price (the scheduler skips its scaling branch and ``x * 1.0`` is an
        IEEE identity).
        """
        facts = self._facts(worker_results)
        compute_scale = validate_rate("compute_scale", compute_scale)
        comm_scale = validate_rate("comm_scale", comm_scale)
        table = self._phase_table(facts)
        schedule = None
        if self.overlap != "none":
            schedule = self._schedule(facts, table, facts.compress_seconds, compute_scale, comm_scale)
        return IterationTiming(
            compute=self.compute_seconds * compute_scale,
            compression=facts.compression_seconds * compute_scale,
            communication=float(sum(table.totals.tolist())) * comm_scale,
            update=self.update_seconds * compute_scale,
            overlap=self.overlap,
            schedule=schedule,
            dedup_ratio=_table_dedup_ratio(table),
        )

    def schedule_iteration(
        self,
        worker_results: Sequence[CompressionResult] | ResultFacts,
        *,
        compression_seconds: float | None = None,
    ) -> ScheduleArrays:
        """Build just the iteration schedule for the worker results.

        This is the scheduler hot path the throughput benchmark times:
        pricing the per-bucket collectives and placing them on the lanes.
        ``compression_seconds`` may be passed precomputed (e.g. once per
        sweep) to keep device-model pricing out of the timed region.  An
        unbucketed pool schedules as one bucket.  Raises for
        ``overlap="none"`` (no schedule exists there).
        """
        facts = self._facts(worker_results)
        if self.overlap == "none":
            raise ValueError(
                'overlap="none" builds no schedule; use compressed_iteration for the flat sum'
            )
        if compression_seconds is None:
            compress = facts.compress_seconds
        else:
            compress = facts.compress_seconds_for(compression_seconds)
        return self._schedule(facts, self._phase_table(facts), compress)

    def bucket_communication_times(
        self, worker_results: Sequence[CompressionResult] | ResultFacts
    ) -> list[float]:
        """Per-bucket all-gather times (one for an unbucketed pool)."""
        return self._phase_table(self._facts(worker_results)).totals.tolist()

    def result_facts(self, worker_results: Sequence[CompressionResult]) -> ResultFacts:
        """Derive what pricing reads off ``worker_results``, once (see :class:`ResultFacts`).

        Bucket ``i`` of the synchronous all-gather completes when the slowest
        worker's bucket-``i`` payload has made it around the ring, so each
        bucket is priced at the per-bucket maximum across workers.  An
        unbucketed pool is one bucket: the slowest worker's whole payload and
        its density, ready when the backward pass ends and compressed for the
        whole compression time.

        All workers compress replicas of the same gradient, so their results
        must agree on the bucket structure: a mix of bucketed and unbucketed
        results, or differing bucket counts, is a mis-assembled worker pool
        and raises :class:`ValueError`, as does an empty one.

        Per-bucket payload density feeds the sparse-dedup model: the
        dimension scale multiplies payloads and bucket sizes alike, so the
        density is scale-free and computed from the proxy-sized metadata.
        """
        if not worker_results:
            raise ValueError("need at least one worker result")
        results = tuple(worker_results)
        basis = self._basis
        payload_lists = [r.metadata.get("bucket_payload_bytes") for r in results]
        missing = sum(p is None for p in payload_lists)
        if missing == len(payload_lists):  # plain unbucketed compressors: one bucket
            slowest = max(results, key=lambda r: r.sparse.payload_bytes())
            per_bucket = np.array([slowest.sparse.payload_bytes()], dtype=float)
            densities = np.array([slowest.sparse.density or math.nan])
            ready_fractions = compress_weights = (1.0,)
        elif missing:
            raise ValueError(
                f"{missing}/{len(payload_lists)} worker results lack "
                "metadata['bucket_payload_bytes'] (mixed bucketed/unbucketed workers)"
            )
        else:
            counts = {len(p) for p in payload_lists}
            if len(counts) != 1:
                raise ValueError(
                    f"worker results disagree on the number of buckets: {sorted(counts)}"
                )
            metadata = results[0].metadata
            per_bucket = np.asarray(payload_lists, dtype=float).max(axis=0)
            densities = _payload_densities(per_bucket, metadata["bucket_sizes"])
            ready_fractions = metadata["bucket_ready_fractions"]
            compress_weights = metadata["bucket_sizes"]
        payloads = _frozen(per_bucket * self.dimension_scale)
        return ResultFacts(
            results=results,
            basis=basis,
            payloads=payloads,
            densities=tuple(None if math.isnan(d) else d for d in densities.tolist()),
            # Exact and content-based like a tuple of the floats, but a
            # ``bytes`` object hashes once, however many points look it up.
            table_key=payloads.tobytes() + densities.tobytes(),
            ready_fractions=ready_fractions,
            compress_weights=compress_weights,
        )

    @property
    def _basis(self) -> tuple:
        """The timeline facts :class:`ResultFacts` depend on."""
        return (self.device, self.dimension_scale, self.compute_seconds)

    def _facts(self, worker_results) -> ResultFacts:
        """``worker_results``' :class:`ResultFacts`, derived unless already given."""
        if not isinstance(worker_results, ResultFacts):
            return self.result_facts(worker_results)
        if worker_results.basis != self._basis:
            raise ValueError(
                "result facts were derived under another device, dimension scale or compute time"
            )
        return worker_results

    def _phase_table(self, facts: ResultFacts) -> PhaseTable:
        """Price every bucket's all-gather as one table."""
        return self._memoized(
            lambda: self.collective.allgather_phase_table(facts.payloads, facts.densities),
            "table", facts.table_key,
        )

    def _memoized(self, build: Callable, kind: str, *payload):
        """``build()``, through :attr:`memo` when one is set."""
        if self.memo is None:
            return build()
        return self.memo((self.collective, kind, *payload), build)

    def _schedule(
        self,
        facts: ResultFacts,
        table: PhaseTable,
        compress_seconds: np.ndarray,
        compute_scale: float = 1.0,
        comm_scale: float = 1.0,
    ) -> ScheduleArrays:
        """Place per-bucket compress/all-gather jobs on the event timeline."""
        return simulate_iteration_arrays(
            ready_seconds=facts.ready_seconds,
            compress_seconds=compress_seconds,
            table=table,
            compute_seconds=self.compute_seconds,
            update_seconds=self.update_seconds,
            overlap=self.overlap,
            cross_bucket_pipeline=self.cross_bucket_pipeline,
            compute_scale=compute_scale,
            comm_scale=comm_scale,
        )


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
