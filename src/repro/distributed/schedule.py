"""Event-driven schedule of one compressed training iteration.

The paper's wall-clock speed-ups only materialise when the compression and
communication of bucket *i* overlap with the backpropagation / compression of
bucket *i+1* — a flat ``compute + compression + communication`` sum (the old
timeline pricing) models a stack that serialises everything and therefore
overstates the iteration time of every real DDP/Horovod deployment.

This module replaces the closed-form sum with a small event-driven simulator,
:func:`simulate_iteration_arrays`.  One iteration is a set of per-bucket jobs,
given as ``(bucket,)`` ready/compress arrays plus one ``(bucket, phase)``
:class:`PhaseTable` of collective phases, scheduled on two resource lanes:

* the **compute lane** runs backpropagation from ``t = 0`` to
  ``compute_seconds`` and produces each bucket's gradient at its
  ``ready_seconds`` (reverse layer order: the last layer's gradients are ready
  first); compression jobs serialise with each other on this lane's
  compression stream,
* the **network lane** runs one all-gather per bucket; transfers serialise on
  the ring, so bucket *i*'s all-gather starts only when bucket *i-1*'s has
  drained.

With ``cross_bucket_pipeline=True`` the single network lane splits into
**per-link lanes**: every fabric a collective phase names (the intra-node and
inter-node links of a two-level topology) is an independent resource, and a
bucket's phase pattern is slid, as one rigid template, to the earliest time it
fits on *all* of its links.  Bucket *i+1*'s intra-node gather then runs while
bucket *i*'s inter-node exchange still occupies the other fabric — the
cross-bucket pipelining the serial lane forbids by treating each collective as
one opaque occupancy.  Rigid sliding preserves every bucket's internal phase
placement, so per-bucket communication time is conserved and the cross-bucket
schedule is never slower than the serial-lane one (each bucket can always fall
back to starting where the serial lane would have started it).

What may start when is governed by the overlap policy:

``"none"``
    Fully serialised: compression starts after the whole backward pass, the
    first all-gather starts after the *last* compression finishes.  The
    critical path degenerates to the exact closed-form sum
    ``compute + sum(compress) + sum(comm) + update``.
``"comm"``
    Communication overlaps compute/compression: bucket *i*'s all-gather starts
    as soon as its own compression is done (and the ring is free), while
    compression still waits for the full backward pass.
``"comm+compress"``
    Additionally, bucket *i*'s compression starts at its gradient-ready time,
    on a stream that runs concurrently with the remaining backpropagation.

The simulator returns the full per-bucket trace as one
:class:`ScheduleArrays` plus the critical-path iteration time, so callers can
report overlapped vs serialised time, the overlap efficiency and per-link
utilisation, not just a single scalar.  :func:`iteration_lower_bound` bounds
the same iteration from the same inputs, after the same input checks,
without scheduling it.  Both read each bucket's communication time from one
derivation, :attr:`PhaseTable.totals`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

#: Recognised overlap policies, weakest to strongest.
OVERLAP_POLICIES: tuple[str, ...] = ("none", "comm", "comm+compress")


def validate_overlap(policy: str) -> str:
    """Return ``policy`` if it is a recognised overlap policy, else raise."""
    if policy not in OVERLAP_POLICIES:
        raise ValueError(f"unknown overlap policy {policy!r}; known: {list(OVERLAP_POLICIES)}")
    return policy


def validate_cross_bucket(cross_bucket_pipeline: bool) -> bool:
    """Return ``cross_bucket_pipeline`` if it is a plain bool, else raise.

    The knob gates a structural change to the network lanes, so a truthy
    non-bool (``1``, ``"false"``, ...) is more likely a mis-threaded config
    value than an intentional choice — fail fast like the other knobs.
    """
    if not isinstance(cross_bucket_pipeline, bool):
        raise ValueError(
            f"cross_bucket_pipeline must be a bool, got {cross_bucket_pipeline!r}"
        )
    return cross_bucket_pipeline


def validate_rate(name: str, value: float) -> float:
    """Return ``value`` as a float if it is a usable lane-rate multiplier.

    Lane rates are *time* multipliers (2.0 = twice as slow), so they must be
    positive and finite; 1.0 is the nominal rate.
    """
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a positive finite multiplier, got {value!r}")
    return value


def validate_duration(name: str, value: float) -> float:
    """Return ``value`` as a float if it is a finite, non-negative duration.

    A NaN or infinite time would flow through every ``max``/``+`` of the
    schedule and come out as a NaN/inf iteration time, so it is rejected at
    the entry point instead.
    """
    value = float(value)
    if not math.isfinite(value) or value < 0.0:
        raise ValueError(f"{name} must be finite and non-negative, got {value!r}")
    return value


def _check_times(name: str, values: np.ndarray) -> None:
    # A NaN propagates through both reductions and fails both comparisons.
    if not (
        0.0 <= np.minimum.reduce(values, axis=None, initial=0.0)
        and np.maximum.reduce(values, axis=None, initial=0.0) < math.inf
    ):
        raise ValueError(f"per-bucket times must be finite and non-negative ({name})")


def _phase_label(phase) -> str:
    """A phase's schedule name: pipelined phases carry their chunk index."""
    return phase.name if phase.chunk is None else f"{phase.name}[c{phase.chunk}]"


@dataclass(frozen=True, eq=False)
class PhaseReductions:
    """What :func:`iteration_lower_bound` reads of a :class:`PhaseTable`.

    The reductions depend on the table alone, so :attr:`PhaseTable.reductions`
    computes them once and every bound over a memoized table reuses them.
    """

    #: (B,) per-bucket communication seconds: :attr:`PhaseTable.totals`.
    comm: np.ndarray
    #: ``float(comm.sum())``: the one network lane's busy seconds.
    comm_total: float
    #: ``(link, busy seconds, phase count)`` per link, in first-column order.
    links: tuple[tuple[str, float, int], ...]


@dataclass(frozen=True, eq=False)
class PhaseTable:
    """One iteration's collectives: one ``(bucket, phase)`` matrix per field.

    ``B`` buckets price as ``(B, P)`` matrices sharing per-column names and
    links.  Row ``b`` is elementwise bit-identical to the scalar
    :class:`~repro.distributed.topology.CollectiveCost` of bucket ``b``,
    which is what keeps the scheduler's timings equal to per-bucket pricing.

    Every table is placed: ``offsets`` holds each phase's start inside its
    bucket's collective and ``mask`` the phases each row has, and a bucket's
    communication time is its latest present phase end (:attr:`totals`).
    :meth:`serial` builds back-to-back phases, each starting where the
    previous column ended (the unchunked
    :meth:`~repro.distributed.topology.CollectiveAlgorithm.allgather_table`).
    :meth:`from_costs` packs chunk-pipelined costs, whose rows are ragged: a
    latency-bound payload falls back to the serial phases while a large one
    pipelines into chunk phases, so one template holds both column blocks
    and each row fills only its own.  Absent phases must last zero seconds.
    """

    names: tuple[str, ...]
    links: tuple[str, ...]
    #: (B, P) per-phase durations (0.0 where a phase is absent).
    seconds: np.ndarray
    #: (B, P) per-phase wire volumes (0.0 where a phase is absent).
    volumes: np.ndarray
    #: (B,) per-bucket achieved dedup ratios.
    dedup_ratios: np.ndarray
    #: (B, P) phase start offsets inside each bucket's collective.
    offsets: np.ndarray
    #: (B, P) True where the row has the phase.
    mask: np.ndarray

    def __post_init__(self) -> None:
        shape = self.seconds.shape
        if len(shape) != 2 or len(self.names) != shape[1] or len(self.links) != shape[1]:
            raise ValueError(
                f"phase seconds must be (num_buckets, num_phases) with one name and link "
                f"per column, got {shape} for {len(self.names)} names, {len(self.links)} links"
            )
        for name in ("offsets", "mask", "volumes"):
            if getattr(self, name).shape != shape:
                raise ValueError(f"phase {name} must match phase seconds in shape")
        if self.mask.dtype != bool:
            raise ValueError("the phase mask must hold bools")
        _check_times("phase seconds", self.seconds)
        _check_times("phase offsets", self.offsets)
        if self.seconds[~self.mask].any():
            raise ValueError("absent phases (mask False) must last zero seconds")

    @classmethod
    def serial(cls, names, links, seconds, volumes, dedup_ratios) -> "PhaseTable":
        """A table of ``(B, P)`` ``seconds`` whose rows have every phase, back-to-back.

        A phase starts where the previous column ended: the offsets are the
        row's running sum, so each bucket's total is its cursor walk.
        """
        offsets = np.zeros_like(seconds)
        # ``...`` lets a ``seconds`` of the wrong rank reach the shape check.
        offsets[..., 1:] = np.cumsum(seconds[..., :-1], axis=-1)
        return cls(
            names, links, seconds, volumes, dedup_ratios, offsets, np.ones(seconds.shape, bool)
        )

    @classmethod
    def from_costs(cls, costs) -> "PhaseTable":
        """Pack per-bucket :class:`~repro.distributed.topology.CollectiveCost` objects.

        Each distinct phase sequence (names and links, in order) gets one
        contiguous block of columns the first time a cost shows it; a row
        fills its own block, so iterating a row's present columns replays its
        cost's phases in order.  Offsets follow the cost's cursor walk, so
        every row's total equals its cost's bit for bit.
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

    @cached_property
    def totals(self) -> np.ndarray:
        """(B,) each bucket's communication seconds: its latest present phase end.

        The one derivation of a bucket's collective time, read by the
        scheduler, the lower bound and the timeline's communication sum.
        """
        totals = np.where(self.mask, self.offsets + self.seconds, 0.0).max(axis=1, initial=0.0)
        totals.flags.writeable = False
        return totals

    @cached_property
    def reductions(self) -> PhaseReductions:
        """What every lower bound over this table reads of it, reduced once.

        A memoized table serves many sweep points; each point's bound then
        combines these with its own ready and compression times
        (:func:`iteration_lower_bound`).
        """
        busy: dict[str, float] = {}
        phases: dict[str, int] = {}
        columns = zip(
            self.links,
            self.seconds.sum(axis=0).tolist(),
            np.count_nonzero(self.seconds, axis=0).tolist(),
        )
        for link, column_seconds, column_phases in columns:
            busy[link] = busy.get(link, 0.0) + column_seconds
            phases[link] = phases.get(link, 0) + column_phases
        return PhaseReductions(
            comm=self.totals,
            comm_total=float(self.totals.sum()),
            links=tuple((link, busy[link], phases[link]) for link in busy),
        )


@dataclass(frozen=True, eq=False)
class ScheduleArrays:
    """One simulated iteration: the scheduler's trace as NumPy arrays.

    Per-bucket times are ``(bucket,)`` arrays and phase placements are
    ``(bucket, phase)`` matrices, both in bucket-index order.  The ``P``
    phase columns share one ``phase_names``/``phase_links`` template, and
    ``present`` marks the phases each row has (its table's mask), so ragged
    rows (chunk-pipelined and serial collectives in one iteration) share it.
    """

    policy: str
    compute_seconds: float
    update_seconds: float
    #: Critical-path end-to-end time of the iteration (including the update).
    iteration_seconds: float
    #: The ``overlap="none"`` closed-form sum for the same workload.
    serialized_seconds: float
    #: True when buckets were scheduled on per-link network lanes (cross-bucket
    #: pipelining); False for the serial whole-occupancy network lane.
    cross_bucket: bool
    #: (B,) per-bucket gradient-ready / compression / communication times.
    ready: np.ndarray
    compress_start: np.ndarray
    compress_end: np.ndarray
    comm_start: np.ndarray
    comm_end: np.ndarray
    #: Shared per-phase template: names and fabric lanes of the P columns.
    phase_names: tuple[str, ...]
    phase_links: tuple[str, ...]
    #: (B, P) absolute phase placements.
    phase_start: np.ndarray
    phase_end: np.ndarray
    #: (B, P) True where bucket ``b`` has phase column ``p``.
    present: np.ndarray

    @property
    def num_buckets(self) -> int:
        return len(self.ready)

    @property
    def total_comm_seconds(self) -> float:
        return sum((self.comm_end - self.comm_start).tolist())

    def link_utilization(self) -> dict[str, dict[str, float]]:
        """Per-link busy time over the network's active window, by fabric.

        Phases are attributed to the link they name.  ``utilization`` is the
        link's busy time over the window from the first to the last
        communication of a bucket that has phases — the quantity cross-bucket
        pipelining raises by letting one fabric work while another bucket
        occupies the other.  Busy time is a Python-float sum over the present
        cells in row-major order.

        A schedule in which no bucket has a phase reports no lanes: the empty
        dict, never an ``inf``/NaN window.
        """
        present = self.present
        active = present.any(axis=1)
        if not active.any():
            return {}
        busy: dict[str, float] = {}
        buckets, columns = np.nonzero(present)
        durations = (self.phase_end - self.phase_start)[buckets, columns].tolist()
        for p, seconds in zip(columns.tolist(), durations):
            link = self.phase_links[p]
            busy[link] = busy.get(link, 0.0) + seconds
        first = min(self.comm_start[active].tolist())
        last = max([0.0] + self.comm_end[active].tolist())
        window = max(last - first, 0.0)
        return {
            link: {
                "busy_seconds": seconds,
                "window_seconds": window,
                "utilization": seconds / window if window > 0.0 else 0.0,
            }
            for link, seconds in sorted(busy.items())
        }


#: Bumps a template fit makes on the scalar path before it sweeps.  Fits on
#: lightly loaded lanes end within them and never build an array.
_SCALAR_BUMPS = 2


def _bump_loop(phases, t: float, limit: int | None) -> tuple[float, bool]:
    """Exact bump-and-recheck loop from ``t``: ``(t, True)`` once the template fits.

    ``phases`` holds ``(offset, seconds, spans)`` for the template's phases
    that last longer than zero, in column order.  The first phase (in that
    order) whose ``[t + offset, t + offset + seconds)`` overlaps a committed
    span on its link, by more than ``1e-12 * max(1, |end|)``, pushes the
    template to ``conflict_end - offset`` and the scan restarts.  Each link's
    ``spans`` is sorted, so two bisected candidates decide the check: the
    last span starting at or before the phase (it may straddle the start) and
    the first span starting after it (it may begin before the end).  After
    ``limit`` bumps the loop stops early and returns ``(t, False)``.
    """
    bumps = 0
    while True:
        for offset, seconds, spans in phases:
            start = t + offset
            end = start + seconds
            tolerance = 1e-12 * max(1.0, abs(end))
            i = bisect_right(spans, (start, math.inf))
            if i and spans[i - 1][1] > start + tolerance:
                conflict_end = spans[i - 1][1]
            elif i < len(spans) and spans[i][0] < end - tolerance:
                conflict_end = spans[i][1]
            else:
                continue
            t = conflict_end - offset
            break
        else:
            return t, True
        bumps += 1
        if bumps == limit:
            return t, False


class _LinkLanes:
    """Spans committed to the per-link lanes of one cross-bucket schedule.

    The same spans are held twice: per link, a list of ``(start, end)``
    sorted by start, which the exact check bisects; and a NumPy table of
    ``(start, end, link id)`` rows, from which a fit sweeps its forbidden
    intervals.  New rows wait in a Python list and join the table only when
    a fit sweeps, so lanes whose fits end within a few bumps never build an
    array.

    Gates never decrease in processing order and phase offsets are ``>= 0``,
    so a span ending at or before the current gate can never conflict again
    and is pruned.  A list drops only its leading run of such spans, which
    leaves the check's bisected neighbours unchanged.
    """

    def __init__(self, links: tuple[str, ...], scale: float):
        ids = {link: i for i, link in enumerate(dict.fromkeys(links))}
        self.link_ids = np.array([ids[link] for link in links], dtype=np.intp)
        self.spans: list[list[tuple[float, float]]] = [[] for _ in ids]
        # A link stays clean while every span on it is wider than ``sliver``
        # and overlaps its neighbours by at most half that.  Then no span
        # nests inside another, so a conflict with any span is found by the
        # check's two bisected candidates, which the sweep assumes.  Any
        # positive ``sliver`` gives that; four tolerances of the schedule's
        # time scale keep honest commits (which overlap by at most one
        # tolerance) from making a link dirty.
        self.sliver = 4e-12 * max(1.0, scale)
        self.clean = [True] * len(ids)
        self.table = np.empty((0, 3))
        self.pending: list[tuple[float, float, int]] = []

    def fit(self, layout, offsets: np.ndarray, seconds: np.ndarray, gate: float) -> float:
        """Earliest start ``>= gate`` at which the rigid template fits on every link.

        ``layout`` lists ``(offset, seconds, link id)`` for the phases that
        last longer than zero, in column order; the ``offsets``/``seconds``
        rows hold every column as arrays.  The start is minimal up to the
        check's ``1e-12 * max(1, |end|)`` conflict tolerance and equals the
        plain bump-and-recheck loop from ``gate``, bit for bit.  A fit still
        bumping after a few scalar bumps sweeps a lower bound
        (:meth:`_sweep`) and finishes with the exact loop from there, which
        usually stops after zero to two bumps.  Because the serial-lane start
        (after every earlier bucket has fully drained) is always feasible,
        the start is never later than the serial lane's, up to the rounding
        of committed phase ends.
        """
        for spans in self.spans:
            if spans and spans[0][1] <= gate:
                drained = 1
                while drained < len(spans) and spans[drained][1] <= gate:
                    drained += 1
                del spans[:drained]
        phases = [
            (offset, duration, self.spans[link])
            for offset, duration, link in layout
            if self.spans[link]
        ]
        t, done = _bump_loop(phases, gate, _SCALAR_BUMPS)
        if done:
            return t
        if all(self.clean[link] for _, _, link in layout):
            swept = self._sweep(offsets, seconds, gate, t)
            if swept is not None:
                lower, targets, width = swept
                start = _bump_loop(phases, lower, None)[0]
                if _unambiguous(targets, lower, start, width):
                    return start
        return _bump_loop(phases, t, None)[0]

    def _sweep(self, offsets, seconds, gate: float, t: float):
        """Lower bound ``L > t`` on the fit, its bump targets and their fuzzy width.

        Each (phase, committed span on its link) pair forbids the open
        interval ``(s - offset - seconds, e - offset)`` of template starts.
        Shrunk at both ends by four times a bound ``tau`` on the check's
        tolerance, every interval lies inside the starts the exact check
        rejects, so sweeping their union once, upward from ``t`` in order of
        lower end, gives a bound ``L`` below which no start is feasible.

        From ``t`` or from ``L`` (which is infeasible: it lies inside the
        interval that set it), the exact loop visits only bump targets
        ``e - offset``, never skips a feasible one except within ``2 tau``
        below a target it jumps to, and stops at the first feasible one.  So
        the two loops agree unless a target in ``[L, result]`` lies within
        that fuzzy width below another, which :func:`_unambiguous` rules out
        with ``width = 3 tau``.  Both rest on the link being clean: with no
        span nested in another, a phase overlapping any span is caught by the
        check's two bisected candidates.  Returns ``None`` when the sweep
        cannot move past ``t``.
        """
        table = self.table
        if self.pending:
            table = np.concatenate((table, self.pending))
            self.pending = []
        # Rows ended by the gate can never conflict again (see the class).
        self.table = table = table[table[:, 1] > gate]
        starts, ends, links = table[:, 0], table[:, 1], table[:, 2]
        rows, cols = np.nonzero((self.link_ids[:, None] == links) & (seconds > 0.0)[:, None])
        if not len(rows):
            return None
        end = ends[cols]
        targets = end - offsets[rows]
        phase_ends = offsets + seconds
        tau = 1e-12 * max(1.0, float(end.max()) + float(phase_ends.max()))
        low = starts[cols] - phase_ends[rows]
        order = np.argsort(low, kind="stable")
        reach = np.maximum.accumulate(targets[order]) - 4.0 * tau
        before = np.empty_like(reach)
        before[0] = t
        np.maximum(reach[:-1], t, out=before[1:])
        gaps = low[order] + 4.0 * tau >= before
        first = int(gaps.argmax())
        lower = float(before[first]) if gaps[first] else float(reach[-1])
        if lower <= t:
            return None
        return lower, targets, 3.0 * tau

    def commit(self, start: float, layout) -> None:
        """Occupy every link the template names from ``start`` on."""
        sliver = self.sliver
        for offset, seconds, link in layout:
            span_start = start + offset
            span_end = span_start + seconds
            # A phase shorter than the clock's resolution occupies nothing;
            # committing its zero-width span could pin a later template fit
            # at a bump that rounds back to the same start.
            if span_end <= span_start:
                continue
            spans = self.spans[link]
            span = (span_start, span_end)
            i = bisect_right(spans, span)
            spans.insert(i, span)
            self.pending.append((span_start, span_end, link))
            if self.clean[link] and (
                span_end - span_start <= sliver
                or (i and spans[i - 1][1] - span_start > 0.5 * sliver)
                or (i + 1 < len(spans) and span_end - spans[i + 1][0] > 0.5 * sliver)
            ):
                self.clean[link] = False


def _unambiguous(targets: np.ndarray, lower: float, start: float, width: float) -> bool:
    """True if no bump target in ``[lower, start]`` has another within ``width`` above it.

    Only there can the loop from ``lower`` and the loop from the fit's gate
    part ways: one stops at a target the check's tolerance lets pass, the
    other jumps over it to a target just above.
    """
    near = np.sort(targets[(targets >= lower) & (targets <= start + width)]).tolist()
    for target, following in zip(near, near[1:]):
        if target > start:
            break
        if target < following <= target + width:
            return False
    return True


def _checked_inputs(
    ready_seconds, compress_seconds, table: PhaseTable, compute_seconds, update_seconds,
    overlap: str, cross_bucket_pipeline: bool,
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Check one iteration's inputs; return ``(ready, compress, compute, update)``.

    :func:`simulate_iteration_arrays` and :func:`iteration_lower_bound` both
    run these checks, so an input one rejects the other rejects too.  The
    table checked its own arrays when it was built.
    """
    validate_overlap(overlap)
    validate_cross_bucket(cross_bucket_pipeline)
    compute_seconds = validate_duration("compute_seconds", compute_seconds)
    update_seconds = validate_duration("update_seconds", update_seconds)
    ready = np.asarray(ready_seconds, dtype=float)
    if ready.ndim != 1:
        raise ValueError(
            f"ready_seconds must be 1-D (one time per bucket), got shape {ready.shape}"
        )
    compress = np.asarray(compress_seconds, dtype=float)
    if compress.shape != ready.shape:
        raise ValueError("compress_seconds must match ready_seconds in shape")
    if table.seconds.shape[0] != ready.shape[0]:
        raise ValueError(
            f"the phase table has {table.seconds.shape[0]} rows for {ready.shape[0]} buckets"
        )
    _check_times("ready_seconds", ready)
    _check_times("compress_seconds", compress)
    return ready, compress, compute_seconds, update_seconds


def simulate_iteration_arrays(
    *,
    ready_seconds,
    compress_seconds,
    table: PhaseTable,
    compute_seconds: float,
    overlap: str = "none",
    update_seconds: float = 0.0,
    cross_bucket_pipeline: bool = False,
    compute_scale: float = 1.0,
    comm_scale: float = 1.0,
) -> ScheduleArrays:
    """Schedule per-bucket compress/all-gather jobs and return the event trace.

    The workload comes as ``ready_seconds`` and ``compress_seconds`` of
    shape ``(B,)`` plus a :class:`PhaseTable` of ``B`` rows: every phase
    placed at its offset inside its bucket's collective (chunk-pipelined
    phases on different links overlap), and a bucket's communication time
    is the table's :attr:`~PhaseTable.totals`.

    Buckets are processed in gradient-ready order (ties broken by index),
    which is how DDP-style stacks drain their fusion buffers — and, for
    layer-aware buckets, is exactly reverse-layer priority order.  A ready
    time beyond ``compute_seconds`` is allowed (delayed readiness); the usual
    construction derives ready times as fractions of the backward pass.

    ``cross_bucket_pipeline=False`` serialises buckets on one network lane as
    whole occupancies; ``True`` slides each bucket's phase template to the
    earliest time it fits on every per-link lane, so consecutive buckets
    overlap wherever they occupy different fabrics.

    The compression stream and the serial network lane are scalar
    Python-float recurrences, and everything elementwise (phase offsets,
    absolute phase placement) runs as NumPy matrix ops whose per-element
    operation order matches the scalar expressions — so every time equals
    pricing the buckets one
    :class:`~repro.distributed.topology.CollectiveCost` at a time, bit for
    bit.  A template fit is minimal up to the check's
    ``1e-12 * max(1, |end|)`` conflict tolerance: a lower bound swept over
    NumPy forbidden-interval arrays, then the exact scalar bump loop from
    there, which returns the start the bump loop from the gate would.

    ``compute_scale``/``comm_scale`` are per-worker lane rates for the fault
    layer (:mod:`repro.distributed.faults`): a straggler's schedule is this
    worker's own iteration with its compute lane (backward pass, compression
    stream, update) slowed by ``compute_scale`` and its network lane slowed
    by ``comm_scale``.  Phase offsets and bucket totals are derived from the
    unscaled durations and then scaled, like the durations themselves.  At
    the nominal ``(1.0, 1.0)`` the scaling branch is not taken at all.
    """
    ready, compress, compute_seconds, update_seconds = _checked_inputs(
        ready_seconds, compress_seconds, table, compute_seconds, update_seconds,
        overlap, cross_bucket_pipeline,
    )
    compute_scale = validate_rate("compute_scale", compute_scale)
    comm_scale = validate_rate("comm_scale", comm_scale)
    num_buckets = ready.shape[0]
    offsets, phase_seconds, comm = table.offsets, table.seconds, table.totals
    if compute_scale != 1.0 or comm_scale != 1.0:
        ready = ready * compute_scale
        compress = compress * compute_scale
        compute_seconds = compute_seconds * compute_scale
        update_seconds = update_seconds * compute_scale
        offsets = offsets * comm_scale
        phase_seconds = phase_seconds * comm_scale
        comm = comm * comm_scale

    ready_list = ready.tolist()
    compress_list = compress.tolist()
    comm_list = comm.tolist()
    order = sorted(range(num_buckets), key=lambda i: (ready_list[i], i))

    # Compression stream: serialises compression jobs; gated per policy.  No
    # policy may compress a gradient before it exists, so the full-backward
    # gate still honours a ready time beyond compute_seconds.
    compress_start_list = [0.0] * num_buckets
    compress_end_list = [0.0] * num_buckets
    compress_free = 0.0
    for i in order:
        if overlap == "comm+compress":
            gate = ready_list[i]
        else:
            gate = max(compute_seconds, ready_list[i])
        start = max(gate, compress_free)
        end = start + compress_list[i]
        compress_start_list[i] = start
        compress_end_list[i] = end
        compress_free = end

    # Network: one all-gather per bucket.  The serial lane holds each bucket
    # as one opaque occupancy; the cross-bucket pipeline slides each bucket's
    # rigid phase template to the earliest time it fits on every link it uses.
    all_compressed = compress_free
    comm_start_list = [0.0] * num_buckets
    comm_end_list = [0.0] * num_buckets
    comm_free = 0.0
    if cross_bucket_pipeline:
        lanes = _LinkLanes(table.links, all_compressed + sum(comm_list))
        link_ids = lanes.link_ids.tolist()
        layouts = [
            [
                (offset, seconds, link)
                for offset, seconds, link in zip(offsets_row, seconds_row, link_ids)
                if seconds > 0.0
            ]
            for offsets_row, seconds_row in zip(offsets.tolist(), phase_seconds.tolist())
        ]
    for i in order:
        gate = all_compressed if overlap == "none" else compress_end_list[i]
        if cross_bucket_pipeline:
            start = lanes.fit(layouts[i], offsets[i], phase_seconds[i], gate)
            lanes.commit(start, layouts[i])
        else:
            start = max(gate, comm_free)
        end = start + comm_list[i]
        comm_free = end
        comm_start_list[i] = start
        comm_end_list[i] = end

    comm_start = np.asarray(comm_start_list)
    phase_start = comm_start[:, None] + offsets
    last_comm = max(comm_end_list) if num_buckets else 0.0
    iteration = max(compute_seconds, compress_free, last_comm) + update_seconds
    serialized = (
        compute_seconds + sum(compress_list) + sum(comm_list) + update_seconds
    )
    return ScheduleArrays(
        policy=overlap,
        compute_seconds=compute_seconds,
        update_seconds=update_seconds,
        iteration_seconds=iteration,
        serialized_seconds=serialized,
        cross_bucket=cross_bucket_pipeline,
        ready=ready,
        compress_start=np.asarray(compress_start_list),
        compress_end=np.asarray(compress_end_list),
        comm_start=comm_start,
        comm_end=np.asarray(comm_end_list),
        phase_names=table.names,
        phase_links=table.links,
        phase_start=phase_start,
        phase_end=phase_start + phase_seconds,
        present=table.mask,
    )


#: Relative deflation of :func:`iteration_lower_bound`.  The bound sums the
#: scheduler's durations in its own order, which may round differently from
#: the scheduler's, by far less than this.
LOWER_BOUND_SLACK = 1e-9

#: A cross-bucket template fit lets a phase overlap a committed span on its
#: link by up to this much relative time (see :func:`_bump_loop`).
_FIT_TOLERANCE = 1e-12


def iteration_lower_bound(
    *,
    ready_seconds,
    compress_seconds,
    table: PhaseTable,
    compute_seconds: float,
    overlap: str = "none",
    update_seconds: float = 0.0,
    cross_bucket_pipeline: bool = False,
) -> float:
    """A lower bound on :func:`simulate_iteration_arrays`'s ``iteration_seconds``.

    Takes the scheduler's own inputs (nominal lane rates), runs the
    scheduler's own input checks, and places no template: it combines the
    table's :attr:`~PhaseTable.reductions` (computed once per table, so a
    memoized table pays them once for every bound over it) with the
    per-bucket ready and compression times.  The iteration ends after the
    update, which follows the latest of the backward pass, the compression
    stream and the last communication, and each of those is bounded from
    below:

    * the backward pass is ``compute_seconds``;
    * the compression stream runs its jobs one at a time from the earliest
      compression gate (the ready time, or the end of the backward pass
      unless compression overlaps it);
    * a bucket's communication starts no earlier than its compression ends
      (with ``overlap="none"``, than the whole stream ends), so each bucket
      ends no earlier than its chain of gate, compression and collective;
    * every link carries one phase at a time from the earliest
      communication start on, so the busiest link's phase seconds follow
      it (less the overlap a template fit tolerates, per phase);
    * without ``cross_bucket_pipeline`` the one network lane carries whole
      collectives one at a time, so all bucket totals follow it.

    With ``overlap="none"`` on the serial lane the bound is the flat sum
    ``compute + sum(compress) + sum(comm) + update``.  The result is
    deflated by :data:`LOWER_BOUND_SLACK`, which makes it sound in floating
    point.  Absent phases count for nothing.
    """
    ready, compress, compute_seconds, update_seconds = _checked_inputs(
        ready_seconds, compress_seconds, table, compute_seconds, update_seconds,
        overlap, cross_bucket_pipeline,
    )
    reductions = table.reductions
    lanes = [compute_seconds]
    if len(ready):
        gate = ready if overlap == "comm+compress" else np.maximum(ready, compute_seconds)
        stream = float(gate.min()) + float(compress.sum())
        comm_gate = stream if overlap == "none" else gate + compress
        earliest = stream if overlap == "none" else float(comm_gate.min())
        lanes += [stream, float((comm_gate + reductions.comm).max())]
        if not cross_bucket_pipeline:
            lanes.append(earliest + reductions.comm_total)
        for _, link_seconds, link_phases in reductions.links:
            end = earliest + link_seconds
            # Each phase may overlap a neighbour on either side by the tolerance.
            lanes.append(end - 2 * link_phases * _FIT_TOLERANCE * max(1.0, end))
    return (max(lanes) + update_seconds) * (1.0 - LOWER_BOUND_SLACK)


def ready_times_from_fractions(fractions, compute_seconds: float) -> list[float]:
    """Map per-bucket backward-pass fractions onto absolute gradient-ready times."""
    times = []
    for f in fractions:
        if not 0.0 <= f <= 1.0:
            raise ValueError(f"ready fraction must be in [0, 1], got {f}")
        times.append(f * compute_seconds)
    return times
