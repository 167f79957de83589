"""Multi-level cluster topology and pluggable collective-algorithm models.

The paper's speed-ups come from two very different fabrics — a TCP 10/25 Gbps
Ethernet cluster of single-GPU servers (Appendix D, Cluster 1) and a 100 Gbps
InfiniBand fabric inside one 8-GPU node (Cluster 2).  A single flat
:class:`~repro.distributed.network.NetworkModel` link cannot express the
difference, nor can one closed form express the algorithms real stacks choose
per fabric (ring vs recursive doubling, flat vs hierarchical sparse
all-gather).

This module models both dimensions:

* :class:`ClusterTopology` — a hierarchy of :class:`LinkLevel` entries
  (devices → racks → pods, each with its own :class:`NetworkModel` and
  oversubscription factor).  The classic construction is two-level —
  ``num_nodes`` x ``devices_per_node`` workers with an *intra-node* link
  (NVLink/InfiniBand inside a server) and an *inter-node* link (the Ethernet
  between servers) — and ``devices_per_node == 1`` or ``num_nodes == 1``
  degenerates to the old single-level model.  :meth:`ClusterTopology.from_levels`
  builds deeper fabrics (the ``fat-tree-128`` and ``dragonfly-64`` presets).
* Collective algorithms — ``ring-allreduce``, ``recursive-doubling``,
  ``flat-allgather`` and ``hierarchical`` — each describing an op once, as a
  list of phases of ``steps`` messages of ``step_bytes`` over one link.  The
  same list prices one payload (a :class:`CollectiveCost` whose per-phase
  breakdown sums exactly to the total, so the event-driven iteration schedule
  can place every phase on the network lane), a whole batch of bucket
  payloads (a :class:`PhaseTable` whose rows equal those costs bit for bit)
  and the chunk-pipelined phases.
* :class:`CollectiveModel` — a topology plus one algorithm choice per
  operation; the single-level case with ``ring-allreduce``/``flat-allgather``
  reproduces ``NetworkModel.allreduce_time``/``allgather_time`` bit-for-bit
  (the golden tests pin this), which is what makes the refactor safe.

Sparse all-gather payloads grow with the participant count (every worker
contributes its own (index, value) selection), which is why the hierarchical
algorithm helps: the inter-node ring exchanges one node-aggregated payload per
node instead of one per device.  The price is that the aggregate must also be
distributed *inside* each node, so hierarchical only wins when the intra-node
link is sufficiently faster than the inter-node link — see
:func:`hierarchical_crossover_factor` for the exact sufficient condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .network import (
    CLUSTER_ETHERNET_10G,
    CLUSTER_ETHERNET_25G,
    NODE_INFINIBAND_100G,
    NetworkModel,
    lookup_preset,
)
from .schedule import PhaseReductions, reduce_phases

if TYPE_CHECKING:
    from .knobs import SimulationKnobs

#: Collective operations the algorithm layer knows how to price.
COLLECTIVE_OPS: tuple[str, ...] = ("allreduce", "allgather")

#: Index-overlap assumptions the sparse-aggregate dedup model supports.
DEDUP_ASSUMPTIONS: tuple[str, ...] = ("uniform", "identical", "disjoint")


@dataclass(frozen=True)
class SparseAggregateModel:
    """Expected size of a deduplicated union of sparse top-k selections.

    When a node leader reduces its ``D`` devices' (index, value) payloads
    before the inter-node exchange, overlapping indices collapse into one
    entry, so the node aggregate is the *union* of the selections — between
    one worker's payload (everyone picked the same indices) and ``D`` payloads
    (nobody overlapped).  Where the union lands depends on how correlated the
    selections are; this model offers the three standard assumptions:

    ``"uniform"``
        Each worker's k indices are an independent uniform draw from the n
        bucket slots.  The expected union is the closed form
        ``n * (1 - (1 - k/n)^D)``, i.e. a per-worker multiplier of
        ``(1 - (1 - rho)^D) / rho`` at density ``rho = k/n``.  Real top-k
        gradients overlap *more* than uniform draws, so this is the
        conservative default.
    ``"identical"``
        Every worker selects exactly the same k indices (perfectly correlated
        gradients) — the lower bound: the union is one worker's payload.
    ``"disjoint"``
        No two workers share an index — the upper bound: the union is the
        plain concatenation, capped at the dense bucket size.
    """

    assumption: str = "uniform"

    def __post_init__(self) -> None:
        if self.assumption not in DEDUP_ASSUMPTIONS:
            raise ValueError(
                f"unknown dedup assumption {self.assumption!r}; "
                f"known: {list(DEDUP_ASSUMPTIONS)}"
            )

    @staticmethod
    def _check(density: float, participants: int) -> None:
        if not 0.0 < density <= 1.0:
            raise ValueError(f"density must be in (0, 1], got {density}")
        if participants < 1:
            raise ValueError("participants must be >= 1")

    def union_factor(self, density: float, participants: int) -> float:
        """Expected union size as a multiple of one worker's selection.

        Always in ``[1, min(participants, 1/density)]``: the union can never
        be smaller than one contribution nor larger than the concatenation or
        the dense bucket.
        """
        self._check(density, participants)
        if participants == 1:
            return 1.0
        cap = min(float(participants), 1.0 / density)
        if self.assumption == "identical":
            return 1.0
        if self.assumption == "disjoint":
            return cap
        return min((1.0 - (1.0 - density) ** participants) / density, cap)


@dataclass(frozen=True)
class LinkLevel:
    """One level of a cluster's link hierarchy: ``fanout`` children per group.

    ``link`` prices the fabric joining the level's groups;
    ``oversubscription`` divides its effective bandwidth (a 4:1 oversubscribed
    fat-tree core delivers a quarter of the line rate under all-to-all load)
    and must be >= 1 — oversubscribing a level can never speed it up.
    ``name`` labels the level's phases in collective cost breakdowns
    (``"intra"``/``"inter"`` for the classic two-level decomposition).
    """

    fanout: int
    link: NetworkModel
    oversubscription: float = 1.0
    name: str = ""

    def __post_init__(self) -> None:
        if self.fanout < 1:
            raise ValueError(f"fanout must be >= 1, got {self.fanout}")
        if not self.oversubscription >= 1.0:
            raise ValueError(
                f"oversubscription must be >= 1, got {self.oversubscription}"
            )

    @property
    def effective_link(self) -> NetworkModel:
        """The level's link with oversubscription priced in.

        An oversubscription of exactly 1 returns the link object unchanged, so
        un-oversubscribed levels keep bit-for-bit identity with the two-level
        model they generalize.
        """
        if self.oversubscription == 1.0:
            return self.link
        return NetworkModel(
            bandwidth_gbps=self.link.bandwidth_gbps / self.oversubscription,
            latency_s=self.link.latency_s,
            name=f"{self.link.name}/os{self.oversubscription:g}",
            efficiency=self.link.efficiency,
        )


@dataclass(frozen=True)
class ClusterTopology:
    """A cluster as a hierarchy of link levels.

    The classic construction is two-level — ``num_nodes`` servers with
    ``devices_per_node`` workers each, ``intra_node`` pricing traffic inside a
    server and ``inter_node`` the Ethernet between servers — and either level
    may be trivial, degenerating to the old single-level model.

    ``levels`` generalizes this to an arbitrary hierarchy
    (innermost-to-outermost :class:`LinkLevel` entries, e.g. devices → racks →
    pods for a fat-tree): build one with :meth:`from_levels`.  When ``levels``
    is omitted it is synthesized from the two-level fields, so every
    pre-existing topology is exactly the two-level special case.
    """

    num_nodes: int
    devices_per_node: int
    inter_node: NetworkModel
    intra_node: NetworkModel
    name: str = ""
    levels: tuple[LinkLevel, ...] | None = None

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if self.devices_per_node < 1:
            raise ValueError("devices_per_node must be >= 1")
        if self.levels is None:
            object.__setattr__(
                self,
                "levels",
                (
                    LinkLevel(self.devices_per_node, self.intra_node, name="intra"),
                    LinkLevel(self.num_nodes, self.inter_node, name="inter"),
                ),
            )
            return
        levels = tuple(self.levels)
        if not levels:
            raise ValueError("levels must contain at least one LinkLevel")
        object.__setattr__(self, "levels", levels)
        outer = 1
        for level in levels[1:]:
            outer *= level.fanout
        if self.devices_per_node != levels[0].fanout or self.num_nodes != outer:
            raise ValueError(
                "two-level summary fields disagree with levels: expected "
                f"devices_per_node={levels[0].fanout}, num_nodes={outer}; use "
                "ClusterTopology.from_levels to build multi-level topologies"
            )

    @classmethod
    def from_levels(cls, levels, *, name: str = "") -> "ClusterTopology":
        """Build a topology from innermost-to-outermost :class:`LinkLevel` entries.

        The legacy two-level summary fields are derived for compatibility:
        ``devices_per_node`` is the innermost fanout, ``num_nodes`` the product
        of the remaining fanouts, and ``intra_node``/``inter_node`` the
        innermost/outermost effective links.
        """
        levels = tuple(levels)
        if not levels:
            raise ValueError("levels must contain at least one LinkLevel")
        num_nodes = 1
        for level in levels[1:]:
            num_nodes *= level.fanout
        return cls(
            num_nodes=num_nodes,
            devices_per_node=levels[0].fanout,
            inter_node=levels[-1].effective_link,
            intra_node=levels[0].effective_link,
            name=name,
            levels=levels,
        )

    @property
    def num_workers(self) -> int:
        return self.num_nodes * self.devices_per_node

    @property
    def is_single_level(self) -> bool:
        """True when at most one level has more than one participant."""
        return sum(1 for level in self.levels if level.fanout > 1) <= 1

    @property
    def bottleneck_link(self) -> NetworkModel:
        """The link a flat (topology-oblivious) collective is gated by.

        A ring laid out group-by-group advances every step at the pace of its
        slowest hop: the outermost level that actually spans several groups.
        A fully trivial hierarchy falls back to the innermost link.
        """
        for level in reversed(self.levels):
            if level.fanout > 1:
                return level.effective_link
        return self.levels[0].effective_link

    @classmethod
    def flat(cls, network: NetworkModel, num_workers: int, *, name: str = "") -> "ClusterTopology":
        """The degenerate single-level topology: every worker on one shared link."""
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        return cls(
            num_nodes=num_workers,
            devices_per_node=1,
            inter_node=network,
            intra_node=network,
            name=name or f"flat-{network.name}-x{num_workers}",
        )


@dataclass(frozen=True)
class CollectivePhase:
    """One phase of a collective: where it runs, how long, how much it moves.

    ``start`` is the phase's relative start offset within the collective:
    ``None`` means "serial — right after the previous phase" (the pre-pipeline
    contract), an explicit float places the phase on a pipelined timeline
    where phases on *different* links may overlap.  ``chunk`` identifies which
    payload chunk a pipelined phase carries (``None`` for unchunked phases).
    """

    name: str
    link: str
    seconds: float
    volume_bytes: float = 0.0
    start: float | None = None
    chunk: int | None = None


@dataclass(frozen=True)
class CollectiveCost:
    """Per-phase cost breakdown of one collective operation.

    For serial phases (``start is None`` throughout — every pre-pipeline
    algorithm), ``total`` is the plain sum of the phase durations: phase *k+1*
    consumes phase *k*'s output, which is what lets the schedule simulator
    place them back-to-back on the network lane.  Chunk-pipelined costs carry
    explicitly placed phases instead, and ``total`` is the makespan — the end
    of the last phase, with same-link phases still strictly serial.
    """

    op: str
    algorithm: str
    num_workers: int
    phases: tuple[CollectivePhase, ...] = ()
    #: Number of payload chunks the phases were pipelined over (1 = serial).
    pipeline_chunks: int = 1
    #: Concatenated-over-deduplicated node-aggregate size achieved by the
    #: sparse dedup model (1.0 when dedup is off or structurally impossible).
    dedup_ratio: float = 1.0

    @property
    def total(self) -> float:
        total = 0.0
        cursor = 0.0
        for phase in self.phases:
            start = cursor if phase.start is None else phase.start
            end = start + phase.seconds
            cursor = end
            if end > total:
                total = end
        return total

    @property
    def serial_seconds(self) -> float:
        """The back-to-back traversal time: plain sum of every phase duration."""
        total = 0.0
        for phase in self.phases:
            total += phase.seconds
        return total


def _phase_label(phase: CollectivePhase) -> str:
    """A phase's schedule name: pipelined phases carry their chunk index."""
    return phase.name if phase.chunk is None else f"{phase.name}[c{phase.chunk}]"


@dataclass(frozen=True, eq=False)
class PhaseTable:
    """Batched collective pricing: one (bucket, phase) matrix per field.

    ``B`` buckets price as ``(B, P)`` matrices sharing per-column names and
    links.  Row ``b`` is elementwise bit-identical to the scalar
    :class:`CollectiveCost` of bucket ``b``, which is what keeps the array
    scheduler's timings equal to per-bucket pricing.

    Two layouts exist.  Serial tables (``offsets is None``), from
    :meth:`CollectiveAlgorithm.allgather_table`, give every bucket the same
    phases back-to-back in column order — trivial levels contribute no
    phases regardless of payload, and the affine per-phase pricing ``steps *
    (latency + payload / bandwidth)`` commutes with batching.  Placed tables, from
    :meth:`from_costs`, carry each phase's start offset and a present-phase
    mask instead, because chunk pipelining makes rows ragged: a latency-bound
    payload falls back to the serial phases while a large one pipelines into
    chunk phases, so one template holds both column blocks and each row
    fills only its own.
    """

    names: tuple[str, ...]
    links: tuple[str, ...]
    #: (B, P) per-phase durations (0.0 where a phase is absent).
    seconds: np.ndarray
    #: (B, P) per-phase wire volumes (0.0 where a phase is absent).
    volumes: np.ndarray
    #: (B,) per-bucket achieved dedup ratios.
    dedup_ratios: np.ndarray
    #: (B, P) phase start offsets inside each bucket's collective, or ``None``
    #: for serial rows (each phase starts where the previous column ended).
    offsets: np.ndarray | None = None
    #: (B, P) True where the row has the phase, or ``None`` when all do.
    mask: np.ndarray | None = None

    @property
    def totals(self) -> np.ndarray:
        """(B,) collective totals: the serial cursor walk, or the placed makespan."""
        if self.seconds.shape[1] == 0:
            return np.zeros(self.seconds.shape[0])
        if self.offsets is None:
            return np.cumsum(self.seconds, axis=1)[:, -1]
        return (self.offsets + self.seconds).max(axis=1)

    @cached_property
    def reductions(self) -> PhaseReductions:
        """What every lower bound over this table reads of it, reduced once.

        A memoized table serves many sweep points; each point's bound then
        combines these with its own ready and compression times
        (:func:`~repro.distributed.schedule.iteration_lower_bound`).
        """
        return reduce_phases(self.seconds, self.links, self.offsets, self.mask)

    @classmethod
    def from_costs(cls, costs) -> "PhaseTable":
        """Pack per-bucket :class:`CollectiveCost` objects into one placed table.

        Each distinct phase sequence (names and links, in order) gets one
        contiguous block of columns the first time a cost shows it; a row
        fills its own block, so iterating a row's present columns replays its
        cost's phases in order.  Offsets follow :attr:`CollectiveCost.total`'s
        cursor walk, so every row's total equals its cost's bit for bit.
        """
        blocks: dict[tuple, int] = {}
        names: list[str] = []
        links: list[str] = []
        firsts = []
        for cost in costs:
            signature = tuple((_phase_label(phase), phase.link) for phase in cost.phases)
            if signature not in blocks:
                blocks[signature] = len(names)
                names.extend(name for name, _ in signature)
                links.extend(link for _, link in signature)
            firsts.append(blocks[signature])
        shape = (len(firsts), len(names))
        seconds, volumes, offsets = np.zeros(shape), np.zeros(shape), np.zeros(shape)
        mask = np.zeros(shape, dtype=bool)
        for row, (cost, first) in enumerate(zip(costs, firsts)):
            cursor = 0.0
            for column, phase in enumerate(cost.phases, start=first):
                start = cursor if phase.start is None else phase.start
                seconds[row, column] = phase.seconds
                volumes[row, column] = phase.volume_bytes
                offsets[row, column] = start
                mask[row, column] = True
                cursor = start + phase.seconds
        return cls(
            names=tuple(names),
            links=tuple(links),
            seconds=seconds,
            volumes=volumes,
            dedup_ratios=np.array([cost.dedup_ratio for cost in costs], dtype=float),
            offsets=offsets,
            mask=mask,
        )


def _check_payload(num_bytes) -> None:
    """Raise unless the payload (a float or an array of them) is finite and >= 0."""
    if isinstance(num_bytes, np.ndarray):
        valid = num_bytes.size == 0 or bool(
            0.0 <= np.minimum.reduce(num_bytes) and np.maximum.reduce(num_bytes) < math.inf
        )
    else:
        valid = 0.0 <= num_bytes < math.inf
    if not valid:
        raise ValueError(f"payload bytes must be finite and non-negative, got {num_bytes!r}")


def validate_pipeline_chunks(pipeline_chunks: int) -> int:
    """Return ``pipeline_chunks`` if it is a valid chunk count, else raise."""
    if not isinstance(pipeline_chunks, int) or isinstance(pipeline_chunks, bool) or pipeline_chunks < 1:
        raise ValueError(f"pipeline_chunks must be a positive integer, got {pipeline_chunks!r}")
    return pipeline_chunks


@dataclass(slots=True)
class _PhaseSpec:
    """One collective phase: ``steps`` messages of ``step_bytes`` each over ``link``.

    The only phase description the algorithms produce.  ``step_bytes`` is a
    float for one payload or a ``(B,)`` array for a batch of bucket payloads;
    both evaluate through the same IEEE operations, so a table row equals
    the scalar cost bit for bit.  Splitting the payload into ``C`` chunks
    makes each chunk cost ``steps * (latency + (step_bytes / C) / bandwidth)``
    — the latency is paid per chunk, which is why pipelining only wins when
    the overlap across links recovers more than the extra message starts.
    """

    name: str
    link: NetworkModel
    steps: int
    step_bytes: float | np.ndarray

    def seconds(self, pipeline_chunks: int = 1):
        step_bytes = self.step_bytes
        if pipeline_chunks > 1:
            step_bytes = step_bytes / pipeline_chunks
        return self.steps * (self.link.latency_s + step_bytes / self.link.bytes_per_second)

    def volume_bytes(self, pipeline_chunks: int = 1):
        volume = self.steps * self.step_bytes
        return volume / pipeline_chunks if pipeline_chunks > 1 else volume


def _pipeline_phases(
    specs: list[_PhaseSpec], serial: list[CollectivePhase], pipeline_chunks: int
) -> list[CollectivePhase]:
    """Chunk-pipeline a multi-phase collective, falling back to serial when it loses.

    Chunk *c*'s phase *p* starts once the same link has drained chunk *c-1*'s
    phase *p* and phase *p-1* has delivered chunk *c* — the classic software
    pipeline, whose makespan is latency + max-dominated instead of a pure sum.
    Because every chunk pays each phase's message latencies again, chunking a
    single-phase (or latency-bound) collective is a strict loss; this helper
    then returns the serial phases unchanged, so the pipelined cost is never
    worse than the serial one.
    """
    if not specs:
        return serial
    serial_total = 0.0
    for phase in serial:
        serial_total += phase.seconds
    chunk_seconds = [spec.seconds(pipeline_chunks) for spec in specs]
    # Greedy earliest-start list scheduling: an operation (chunk c, phase p)
    # becomes ready when phase p-1 has delivered chunk c, and every link
    # serves its queue work-conservingly — one transfer at a time, earliest
    # ready first.  Tracking occupancy per *link* (not per phase) matters
    # because several phases may share a fabric (e.g. the hierarchical
    # all-gather's intra-node gather and broadcast), and two chunks' phases
    # must never overlap on one wire.
    spans: dict[tuple[int, int], tuple[float, float]] = {}
    link_free: dict[str, float] = {}
    pending = [(chunk, p) for chunk in range(pipeline_chunks) for p in range(len(specs))]
    while pending:
        best = None
        for chunk, p in pending:
            if p > 0 and (chunk, p - 1) not in spans:
                continue
            ready = spans[(chunk, p - 1)][1] if p > 0 else 0.0
            start = max(ready, link_free.get(specs[p].link.name, 0.0))
            key = (start, chunk, p)
            if best is None or key < best[0]:
                best = (key, chunk, p, start)
        _, chunk, p, start = best
        end = start + chunk_seconds[p]
        spans[(chunk, p)] = (start, end)
        link_free[specs[p].link.name] = end
        pending.remove((chunk, p))
    makespan = max(end for _, end in spans.values())
    if makespan >= serial_total:
        return serial
    return [
        CollectivePhase(
            name=specs[p].name,
            link=specs[p].link.name,
            seconds=chunk_seconds[p],
            volume_bytes=specs[p].volume_bytes(pipeline_chunks),
            start=spans[(chunk, p)][0],
            chunk=chunk,
        )
        for chunk in range(pipeline_chunks)
        for p in range(len(specs))
    ]


def _aggregate_factor(
    dedup: SparseAggregateModel | None, density: float | None, size: int
) -> float:
    """Size of a ``size``-worker sparse aggregate, in payloads per worker.

    With a dedup model and a known density the aggregate is the expected index
    union; otherwise it is the raw concatenation.
    """
    if dedup is not None and density is not None and size > 1:
        return dedup.union_factor(density, size)
    return float(size)


def _bucket_factors(dedup: SparseAggregateModel | None, densities: list[float | None]):
    """:func:`_aggregate_factor` for a bucket batch: one float when every bucket shares it.

    Without a dedup model, or with one density for every bucket (sweeps
    usually compress all buckets at one ratio), the batch shares the scalar
    factor, and a float times a ``(B,)`` array rounds elementwise exactly
    like the single-payload product.  Otherwise each ``(size, density)``
    pair is evaluated once by the scalar helper into a ``(B,)`` array, cached
    per size and built only when an algorithm asks for it.
    """
    distinct = {None} if dedup is None else set(densities)
    if len(distinct) <= 1:
        density = next(iter(distinct), None)
        return lambda size: _aggregate_factor(dedup, density, size)
    cache: dict[int, np.ndarray] = {}

    def factor(size: int) -> np.ndarray:
        cached = cache.get(size)
        if cached is None:
            by_density = {density: _aggregate_factor(dedup, density, size) for density in distinct}
            cached = cache[size] = np.array([by_density[density] for density in densities])
        return cached

    return factor


class CollectiveAlgorithm:
    """Base class: prices one or both collective ops over a :class:`ClusterTopology`.

    An algorithm describes each op it supports once, as a list of
    :class:`_PhaseSpec` entries plus the achieved dedup ratio:
    ``_allreduce(topology, num_bytes)`` and ``_allgather(topology, payloads,
    factor)``, where ``factor(size)`` is the sparse aggregate of ``size``
    workers in payloads per worker.  :meth:`cost` evaluates the specs at one
    payload and :meth:`allgather_table` over a whole bucket batch, so the
    two can never disagree.

    ``density``, ``dedup`` and ``pipeline_chunks`` are accepted for every
    algorithm so :class:`CollectiveModel` can thread them uniformly; only an
    algorithm with a per-node reduce point and phases on more than one link
    (hierarchical, ``pipelines = True``) acts on them — single-link
    collectives have nothing to deduplicate or overlap, so the knobs are
    documented no-ops there.
    """

    name: str = ""
    supported_ops: tuple[str, ...] = ()
    #: Whether ``pipeline_chunks > 1`` chunk-pipelines the phases.
    pipelines: bool = False

    def cost(
        self,
        topology: ClusterTopology,
        op: str,
        num_bytes: float,
        *,
        density: float | None = None,
        dedup: SparseAggregateModel | None = None,
        pipeline_chunks: int = 1,
    ) -> CollectiveCost:
        if op not in COLLECTIVE_OPS:
            raise ValueError(f"unknown collective op {op!r}; known: {list(COLLECTIVE_OPS)}")
        if op not in self.supported_ops:
            raise ValueError(
                f"algorithm {self.name!r} does not model {op!r}; "
                f"it supports {list(self.supported_ops)}"
            )
        _check_payload(num_bytes)
        validate_pipeline_chunks(pipeline_chunks)
        if op == "allreduce":
            specs, dedup_ratio = self._allreduce(topology, num_bytes)
        else:
            specs, dedup_ratio = self._allgather(
                topology, num_bytes, lambda size: _aggregate_factor(dedup, density, size)
            )
        phases = [
            CollectivePhase(spec.name, spec.link.name, spec.seconds(), spec.volume_bytes())
            for spec in specs
        ]
        priced_chunks = 1
        if pipeline_chunks > 1 and self.pipelines:
            phases = _pipeline_phases(specs, phases, pipeline_chunks)
            # Report the chunk count actually priced: a latency-bound
            # fallback to serial phases is 1-chunk pricing no matter what
            # the caller asked for.
            if phases and phases[0].start is not None:
                priced_chunks = pipeline_chunks
        return CollectiveCost(
            op=op,
            algorithm=self.name,
            num_workers=topology.num_workers,
            phases=tuple(phases),
            pipeline_chunks=priced_chunks,
            dedup_ratio=dedup_ratio,
        )

    def allgather_table(
        self,
        topology: ClusterTopology,
        payloads: np.ndarray,
        densities: list[float | None],
        dedup: SparseAggregateModel | None,
    ) -> PhaseTable:
        """Serial all-gather pricing for a whole batch of bucket payloads.

        The same specs :meth:`cost` evaluates, with ``(B,)`` payload arrays
        in place of one float: row ``b`` is bit-identical to the scalar cost
        of bucket ``b`` — the contract the array scheduler's timings build on.
        """
        payloads = np.asarray(payloads, dtype=float)
        _check_payload(payloads)
        specs, dedup_ratio = self._allgather(topology, payloads, _bucket_factors(dedup, densities))
        shape = (payloads.shape[0], len(specs))
        seconds, volumes = np.empty(shape), np.empty(shape)
        for column, spec in enumerate(specs):
            seconds[:, column] = spec.seconds()
            volumes[:, column] = spec.volume_bytes()
        return PhaseTable(
            names=tuple(spec.name for spec in specs),
            links=tuple(spec.link.name for spec in specs),
            seconds=seconds,
            volumes=volumes,
            dedup_ratios=np.full(shape[0], dedup_ratio),
        )


class RingAllreduce(CollectiveAlgorithm):
    """Ring all-reduce: reduce-scatter then all-gather, ``2(N-1)`` chunk steps.

    On a single-level topology the two phases sum exactly to
    ``NetworkModel.allreduce_time`` (each phase is ``(N-1)`` steps of one
    ``1/N`` chunk; doubling a float is exact, so the split is lossless).
    """

    name = "ring-allreduce"
    supported_ops = ("allreduce",)

    def _allreduce(self, topology: ClusterTopology, num_bytes):
        n = topology.num_workers
        if n == 1:
            return [], 1.0
        link = topology.bottleneck_link
        chunk = num_bytes / n
        return [
            _PhaseSpec("reduce-scatter", link, n - 1, chunk),
            _PhaseSpec("ring-allgather", link, n - 1, chunk),
        ], 1.0


class RecursiveDoubling(CollectiveAlgorithm):
    """Recursive doubling: ``ceil(log2 N)`` rounds of pairwise exchange.

    All-reduce exchanges the full buffer every round (few latencies, more
    bytes — the latency-bound regime ring all-reduce loses in).  All-gather
    doubles the gathered block every round, so the total volume matches the
    ring's ``(N-1)`` payloads while paying only ``log2 N`` latencies.
    """

    name = "recursive-doubling"
    supported_ops = ("allreduce", "allgather")

    def _allreduce(self, topology: ClusterTopology, num_bytes):
        n = topology.num_workers
        if n == 1:
            return [], 1.0
        link = topology.bottleneck_link
        return [
            _PhaseSpec(f"round-{k}", link, 1, num_bytes) for k in range(math.ceil(math.log2(n)))
        ], 1.0

    def _allgather(self, topology: ClusterTopology, payloads, factor):
        n = topology.num_workers
        if n == 1:
            return [], 1.0
        link = topology.bottleneck_link
        return [
            _PhaseSpec(f"round-{k}", link, 1, min(2**k, n - 2**k) * payloads)
            for k in range(math.ceil(math.log2(n)))
        ], 1.0


class FlatAllgather(CollectiveAlgorithm):
    """Topology-oblivious ring all-gather: ``N-1`` steps of one payload each.

    The single-level case is, expression for expression, the old
    ``NetworkModel.allgather_time`` closed form; on a multi-node topology
    every step is gated by the inter-node hop (see
    :attr:`ClusterTopology.bottleneck_link`).
    """

    name = "flat-allgather"
    supported_ops = ("allgather",)

    def _allgather(self, topology: ClusterTopology, payloads, factor):
        n = topology.num_workers
        if n == 1:
            return [], 1.0
        return [_PhaseSpec("ring-allgather", topology.bottleneck_link, n - 1, payloads)], 1.0


class Hierarchical(CollectiveAlgorithm):
    """Multi-level collective: gather up the hierarchy, exchange at the top, broadcast down.

    *All-gather* (sparse payloads, one per worker): every non-outermost level
    ring-gathers its groups' aggregates to a leader over that level's link,
    the outermost level's leaders ring-all-gather the full subtree aggregates,
    and each lower level broadcasts the global result back down.  On the
    classic two-level topology this is exactly: each node gathers its ``D``
    device payloads, the ``M`` leaders exchange ``D``-payload aggregates over
    ``M-1`` inter-node steps (instead of ``N-1``), and each leader broadcasts
    the ``N``-payload result to its devices.

    *All-reduce* (dense): binomial-tree reduce towards the top at every lower
    level, ring all-reduce among the outermost leaders, binomial broadcast
    back down — volume does not grow with participants, so the win is purely
    fewer top-level latencies/steps.

    Degenerate cases collapse exactly: a trivial level (``fanout == 1``)
    contributes no phases, so ``devices_per_node == 1`` leaves only the
    inter-node phase (identical to the flat/ring algorithm), ``num_nodes ==
    1`` leaves only the intra-node phases, and one worker costs zero.

    Two knobs refine the sparse all-gather beyond the PR-3 serial pricing:

    * ``dedup`` + ``density`` — the node leader's reduce deduplicates
      overlapping indices before the inter-node exchange, so the node
      aggregate shrinks from ``D`` payloads to the expected union
      (:class:`SparseAggregateModel`), and the final broadcast ships the
      global union instead of the raw ``N - 1``-payload concatenation.  The
      no-dedup case matches the disjoint-union bound while the dense-bucket
      cap is slack (density <= 1/participants); past it, even disjoint
      selections cannot exceed the bucket, so ``disjoint`` prices lower.
    * ``pipeline_chunks`` — the payload is split into chunks and the
      intra/inter phases overlap chunk-by-chunk, so the cost becomes latency
      + max-dominated instead of a pure phase sum.  ``pipeline_chunks=1`` (or
      any chunking that loses to the extra message latencies) keeps the
      serial phases bit-for-bit.
    """

    name = "hierarchical"
    supported_ops = ("allreduce", "allgather")
    pipelines = True

    def _allgather(self, topology: ClusterTopology, payloads, factor):
        levels = topology.levels
        # Each reduce point dedups its subtree's overlapping selections into
        # one aggregate; the final broadcasts ship the n-worker global union.
        # The no-dedup aggregates (``size`` payloads) coincide with the
        # disjoint-union bound until its dense-bucket cap bites (density >
        # 1/participants), which is why both paths share one formula pair.
        specs = []
        # Upward: every non-outermost level gathers its groups' subtree
        # aggregates to a leader, f-1 ring steps of the growing aggregate.
        subtree = 1
        for level in levels[:-1]:
            if level.fanout > 1:
                specs.append(_PhaseSpec(
                    f"{level.name or 'level'}-gather", level.effective_link,
                    level.fanout - 1, factor(subtree) * payloads,
                ))
            subtree *= level.fanout
        # Top: the outermost level's leaders ring-all-gather the aggregates.
        top = levels[-1]
        if top.fanout > 1:
            specs.append(_PhaseSpec(
                f"{top.name or 'top'}-allgather", top.effective_link,
                top.fanout - 1, factor(subtree) * payloads,
            ))
        # Downward: each lower level broadcasts the global aggregate (minus
        # the receiver's own payload) back towards the devices.
        gathered = (factor(topology.num_workers) - 1.0) * payloads
        for level in reversed(levels[:-1]):
            if level.fanout > 1:
                specs.append(_PhaseSpec(
                    f"{level.name or 'level'}-broadcast", level.effective_link, 1, gathered
                ))
        # The dedup win is measured at the top-level exchange: how much the
        # below-top subtree aggregate shrank versus plain concatenation.
        return specs, subtree / factor(subtree)

    def _allreduce(self, topology: ClusterTopology, num_bytes):
        levels = topology.levels

        def tree_phase(level: LinkLevel, suffix: str) -> _PhaseSpec:
            return _PhaseSpec(
                f"{level.name or 'level'}-{suffix}", level.effective_link,
                math.ceil(math.log2(level.fanout)), num_bytes,
            )

        # Binomial-tree reduce towards the top at every non-outermost level...
        specs = [tree_phase(level, "reduce") for level in levels[:-1] if level.fanout > 1]
        # ...ring all-reduce among the outermost leaders...
        top = levels[-1]
        if top.fanout > 1:
            specs.append(_PhaseSpec(
                f"{top.name or 'top'}-allreduce", top.effective_link,
                2 * (top.fanout - 1), num_bytes / top.fanout,
            ))
        # ...and binomial broadcast back down.
        specs += [
            tree_phase(level, "broadcast") for level in reversed(levels[:-1]) if level.fanout > 1
        ]
        return specs, 1.0


#: Pluggable collective algorithms, keyed by name.
COLLECTIVE_ALGORITHMS: dict[str, CollectiveAlgorithm] = {
    algo.name: algo
    for algo in (RingAllreduce(), RecursiveDoubling(), FlatAllgather(), Hierarchical())
}


def get_collective_algorithm(name: str, *, op: str | None = None) -> CollectiveAlgorithm:
    """Look up a collective algorithm by name, optionally requiring ``op`` support."""
    key = name.lower()
    if key not in COLLECTIVE_ALGORITHMS:
        raise ValueError(
            f"unknown collective algorithm {name!r}; known: {sorted(COLLECTIVE_ALGORITHMS)}"
        )
    algorithm = COLLECTIVE_ALGORITHMS[key]
    if op is not None and op not in algorithm.supported_ops:
        raise ValueError(
            f"collective algorithm {name!r} does not model {op!r}; "
            f"it supports {list(algorithm.supported_ops)}"
        )
    return algorithm


def hierarchical_crossover_factor(topology: ClusterTopology) -> float:
    """Intra/inter effective-bandwidth ratio above which hierarchical all-gather always wins.

    With serial phases, the hierarchical all-gather must move the full
    ``(N-1)``-payload aggregate over the intra-node link (gather + broadcast)
    to save ``D-1`` of every ``D`` payloads on the inter-node ring, so merely
    matching the inter-node bandwidth is *not* enough — at equal bandwidths it
    moves strictly more bytes than the flat ring.  Comparing the closed forms
    (``p`` the per-worker payload, ``L/b`` latency and effective bandwidth,
    ``a``/``i`` the intra/inter links)::

        hierarchical <= flat
          <=>  D*L_a + (N+D-2) * p/b_a  <=  (N-M)*L_i + (D-1) * p/b_i

    which holds for *every* payload whenever ``L_a <= L_i`` (the intra fabric
    is no slower to start a message; ``D <= N-M`` covers the latency terms)
    and ``b_a >= b_i * (N+D-2)/(D-1)`` — the factor this function returns.
    Multi-GPU servers clear it easily: the 4x8 Ethernet preset needs ~5.4x
    and its InfiniBand intra-node link is ~17x the effective TCP rate.

    Single-level topologies have nothing to cross over, so the factor is
    ``inf`` (hierarchical degenerates to the flat algorithm instead).
    """
    if topology.is_single_level:
        return math.inf
    n, d = topology.num_workers, topology.devices_per_node
    return (n + d - 2) / (d - 1)


@dataclass(frozen=True)
class CollectiveModel:
    """A cluster topology plus one algorithm choice per collective operation.

    The single-level model built by :meth:`flat` with the default algorithms
    reproduces ``NetworkModel.allreduce_time``/``allgather_time`` exactly —
    the old closed forms are the degenerate case of this layer.

    ``pipeline_chunks`` and ``allgather_dedup`` thread the hierarchical
    algorithm's chunk-pipelining and sparse-dedup knobs through every priced
    collective; both default to off (``1`` / ``None``), in which case the
    model reproduces the serial PR-3 costs bit-for-bit.  They are the only
    place the knobs are set: algorithms hold no defaults of their own.
    Single-link algorithms have nothing to overlap or deduplicate, so the
    knobs are no-ops for them.
    """

    topology: ClusterTopology
    allreduce_algorithm: str = "ring-allreduce"
    allgather_algorithm: str = "flat-allgather"
    #: Payload chunks the hierarchical phases pipeline over (1 = serial).
    pipeline_chunks: int = 1
    #: Sparse-aggregate dedup model applied to hierarchical all-gathers when
    #: the caller supplies a payload density; ``None`` disables dedup.
    allgather_dedup: SparseAggregateModel | None = None

    def __post_init__(self) -> None:
        get_collective_algorithm(self.allreduce_algorithm, op="allreduce")
        get_collective_algorithm(self.allgather_algorithm, op="allgather")
        validate_pipeline_chunks(self.pipeline_chunks)

    def __hash__(self) -> int:
        # Every memoized price is keyed on the model, so its hash reads only
        # fields that hash cheaply, not the topology's levels and links.
        # Equal models agree on them, so the hash is consistent with equality.
        return hash((
            self.topology.name, self.topology.num_workers, self.allreduce_algorithm,
            self.allgather_algorithm, self.pipeline_chunks, self.allgather_dedup,
        ))

    @classmethod
    def from_knobs(cls, knobs: "SimulationKnobs", topology: ClusterTopology) -> "CollectiveModel":
        """The collective model ``knobs`` describe over the resolved ``topology``.

        Takes the bundle's algorithm, chunking and dedup knobs.
        """
        dedup = knobs.dedup_assumption
        return cls(
            topology=topology,
            allreduce_algorithm=knobs.allreduce_algorithm,
            allgather_algorithm=knobs.allgather_algorithm,
            pipeline_chunks=knobs.pipeline_chunks,
            allgather_dedup=None if dedup is None else SparseAggregateModel(dedup),
        )

    @property
    def num_workers(self) -> int:
        return self.topology.num_workers

    @classmethod
    def flat(cls, network: NetworkModel, num_workers: int, **kwargs) -> "CollectiveModel":
        """Degenerate single-level model over one shared link (the pre-topology behaviour)."""
        return cls(topology=ClusterTopology.flat(network, num_workers), **kwargs)

    def allreduce_cost(self, num_bytes: float) -> CollectiveCost:
        """Per-phase cost of all-reducing a dense buffer of ``num_bytes``."""
        algorithm = get_collective_algorithm(self.allreduce_algorithm, op="allreduce")
        return algorithm.cost(
            self.topology, "allreduce", num_bytes, pipeline_chunks=self.pipeline_chunks
        )

    def allgather_cost(
        self, payload_bytes_per_worker: float, *, density: float | None = None
    ) -> CollectiveCost:
        """Per-phase cost of all-gathering one sparse payload per worker.

        ``density`` is the payload's non-zero fraction of its dense bucket;
        it feeds the sparse dedup model (when one is configured) so the
        hierarchical inter-node exchange carries the expected index union
        instead of the raw concatenation.  ``None`` (unknown density)
        disables dedup for this call.
        """
        algorithm = get_collective_algorithm(self.allgather_algorithm, op="allgather")
        return algorithm.cost(
            self.topology,
            "allgather",
            payload_bytes_per_worker,
            density=density,
            dedup=self.allgather_dedup,
            pipeline_chunks=self.pipeline_chunks,
        )

    def allgather_phase_table(self, payloads, densities: list[float | None]) -> PhaseTable:
        """All-gather pricing for ``B`` bucket payloads at once.

        ``payloads`` is a length-``B`` array of per-worker payload bytes and
        ``densities`` the matching per-bucket dense fractions (``None``
        disables dedup for that bucket, exactly like
        :meth:`allgather_cost`).  Row ``b`` of the table is bit-identical to
        ``allgather_cost(payloads[b], density=densities[b])``.

        Unchunked collectives evaluate the algorithm's one phase-spec list
        over the whole bucket batch (:meth:`CollectiveAlgorithm.allgather_table`).
        Chunk pipelining reshapes phases per payload, so chunked collectives
        price each distinct (payload, density) pair once and pack the costs
        with :meth:`PhaseTable.from_costs`.
        """
        if self.pipeline_chunks == 1:
            algorithm = get_collective_algorithm(self.allgather_algorithm, op="allgather")
            return algorithm.allgather_table(
                self.topology, payloads, densities, self.allgather_dedup
            )
        priced: dict[tuple, CollectiveCost] = {}
        costs = []
        for key in zip(np.asarray(payloads, dtype=float).tolist(), densities):
            if key not in priced:
                priced[key] = self.allgather_cost(key[0], density=key[1])
            costs.append(priced[key])
        return PhaseTable.from_costs(costs)


#: Appendix D, Cluster 1: 8 single-GPU servers on 10 Gbps (or 25 Gbps) TCP
#: Ethernet.  One device per node, so the intra-node link never carries
#: collective traffic; it is set to the in-server InfiniBand-class bus for
#: completeness.
TOPOLOGY_CLUSTER1_10G = ClusterTopology(
    num_nodes=8,
    devices_per_node=1,
    inter_node=CLUSTER_ETHERNET_10G,
    intra_node=NODE_INFINIBAND_100G,
    name="cluster1-ethernet-10g",
)
TOPOLOGY_CLUSTER1_25G = ClusterTopology(
    num_nodes=8,
    devices_per_node=1,
    inter_node=CLUSTER_ETHERNET_25G,
    intra_node=NODE_INFINIBAND_100G,
    name="cluster1-ethernet-25g",
)

#: Appendix D, Cluster 2: one shared server with 8 GPUs on a 100 Gbps
#: InfiniBand/NVLink-class fabric.  Single node, so the inter-node link is
#: idle; it is set to the datacentre Ethernet the server hangs off.
TOPOLOGY_CLUSTER2_100G = ClusterTopology(
    num_nodes=1,
    devices_per_node=8,
    inter_node=CLUSTER_ETHERNET_10G,
    intra_node=NODE_INFINIBAND_100G,
    name="cluster2-infiniband-100g",
)

#: The two-level scaling scenario the hierarchical algorithms target: 4
#: Cluster 2-class servers (8 devices each on InfiniBand) joined by Cluster
#: 1's 10 Gbps TCP Ethernet.
TOPOLOGY_ETHERNET_4X8 = ClusterTopology(
    num_nodes=4,
    devices_per_node=8,
    inter_node=CLUSTER_ETHERNET_10G,
    intra_node=NODE_INFINIBAND_100G,
    name="ethernet-4x8",
)

#: A 4x4 2-D torus of single-GPU boxes: every row is a 25 Gbps Ethernet ring,
#: rows are joined column-wise by the 10 Gbps fabric.  Expressed through the
#: same two-level decomposition the hierarchical algorithms use — the row ring
#: plays the intra-node role (gather along the row first), the column ring
#: the inter-node role — which is exactly how 2-D torus collectives
#: decompose dimension-by-dimension.
TOPOLOGY_TORUS_2D = ClusterTopology(
    num_nodes=4,
    devices_per_node=4,
    inter_node=CLUSTER_ETHERNET_10G,
    intra_node=CLUSTER_ETHERNET_25G,
    name="torus-2d",
)

#: A production-scale three-tier fat-tree: 128 nodes of 8 InfiniBand-coupled
#: devices, 8 nodes per rack on 25 Gbps edge links, 4 racks per pod behind a
#: 2:1 oversubscribed 25 Gbps aggregation tier, and 4 pods behind a 4:1
#: oversubscribed 10 Gbps core — the hierarchy ROADMAP item 1 asks for, where
#: the two-level presets stop at 4x8.
TOPOLOGY_FAT_TREE_128 = ClusterTopology.from_levels(
    (
        LinkLevel(8, NODE_INFINIBAND_100G, name="node"),
        LinkLevel(8, CLUSTER_ETHERNET_25G, name="rack"),
        LinkLevel(4, CLUSTER_ETHERNET_25G, oversubscription=2.0, name="pod"),
        LinkLevel(4, CLUSTER_ETHERNET_10G, oversubscription=4.0, name="core"),
    ),
    name="fat-tree-128",
)

#: A dragonfly of 8 groups x 8 nodes x 4 devices (64 nodes, 256 workers):
#: all-to-all 25 Gbps links inside a group, 2:1 oversubscribed 10 Gbps global
#: links between groups.
TOPOLOGY_DRAGONFLY_64 = ClusterTopology.from_levels(
    (
        LinkLevel(4, NODE_INFINIBAND_100G, name="node"),
        LinkLevel(8, CLUSTER_ETHERNET_25G, name="group"),
        LinkLevel(8, CLUSTER_ETHERNET_10G, oversubscription=2.0, name="global"),
    ),
    name="dragonfly-64",
)

TOPOLOGIES: dict[str, ClusterTopology] = {
    "cluster1": TOPOLOGY_CLUSTER1_10G,
    "cluster1-25g": TOPOLOGY_CLUSTER1_25G,
    "cluster2": TOPOLOGY_CLUSTER2_100G,
    "ethernet-4x8": TOPOLOGY_ETHERNET_4X8,
    "torus-2d": TOPOLOGY_TORUS_2D,
    "fat-tree-128": TOPOLOGY_FAT_TREE_128,
    "dragonfly-64": TOPOLOGY_DRAGONFLY_64,
}


def get_topology(name: str) -> ClusterTopology:
    """Look up a predefined cluster topology by short key or full name."""
    return lookup_preset(TOPOLOGIES, name, "topology")
