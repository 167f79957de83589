"""One checker for the invariants every simulated iteration must satisfy.

Scheduler tests, property suites and golden-pin tests all run their schedules
through :func:`check_schedule` instead of re-stating the invariants locally.
"""

from __future__ import annotations

import numpy as np

from repro.distributed import PhaseTable, iteration_lower_bound

#: Relative slack for comparisons that mix differently associated float sums.
TOLERANCE = 1e-9


def _slack(value: float) -> float:
    return TOLERANCE * max(1.0, abs(value))


def _assert_disjoint(spans, what: str) -> None:
    spans = sorted(spans)
    for (a_start, a_end), (b_start, b_end) in zip(spans, spans[1:]):
        assert b_start >= a_end - _slack(a_end), (
            f"{what}: [{a_start!r}, {a_end!r}] overlaps [{b_start!r}, {b_end!r}]"
        )


def serial_table(seconds, names, links) -> PhaseTable:
    """A :meth:`~repro.distributed.PhaseTable.serial` table of bare durations.

    For tests that schedule hand-written ``(bucket, phase)`` durations: no
    wire volumes, no dedup.
    """
    seconds = np.asarray(seconds, dtype=float)
    return PhaseTable.serial(
        names, links, seconds, np.zeros(seconds.shape), np.ones(seconds.shape[0])
    )


def schedule_table(schedule) -> PhaseTable:
    """The placed table of ``schedule``'s own phase durations and offsets."""
    present = schedule.present
    return PhaseTable(
        names=schedule.phase_names,
        links=schedule.phase_links,
        seconds=np.where(present, schedule.phase_end - schedule.phase_start, 0.0),
        volumes=np.zeros(present.shape),
        dedup_ratios=np.ones(present.shape[0]),
        offsets=np.where(present, schedule.phase_start - schedule.comm_start[:, None], 0.0),
        mask=present,
    )


def check_schedule(schedule):
    """Assert the invariants of one simulated iteration; return the schedule.

    Reads a :class:`~repro.distributed.ScheduleArrays` and checks:

    * causality: ``ready <= compress_start <= compress_end <= comm_start
      <= comm_end`` for every bucket, plus the overlap policy's gates
      (compression waits for the backward pass unless it overlaps it; with
      ``overlap="none"`` no all-gather starts before the last compression);
    * the compression stream runs one job at a time, and so does the
      network when buckets share one serial lane;
    * every link carries one phase at a time, across all buckets;
    * every present phase lies inside its bucket's ``[comm_start, comm_end]``;
    * ``iteration_seconds`` equals the latest lane end (compute, compression
      stream, network) plus the update, exactly;
    * :func:`~repro.distributed.iteration_lower_bound`, fed the schedule's
      own durations as a table (:func:`schedule_table`), does not exceed
      ``iteration_seconds`` (the bound the tuner prunes with is sound).
    """
    ready = schedule.ready.tolist()
    compress_start = schedule.compress_start.tolist()
    compress_end = schedule.compress_end.tolist()
    comm_start = schedule.comm_start.tolist()
    comm_end = schedule.comm_end.tolist()
    rows = zip(ready, compress_start, compress_end, comm_start, comm_end)
    for b, (r, cs, ce, ms, me) in enumerate(rows):
        assert r <= cs <= ce <= ms <= me, f"bucket {b} breaks causality: {(r, cs, ce, ms, me)!r}"
        if schedule.policy != "comm+compress":
            assert cs >= schedule.compute_seconds
    by_link: dict[str, list[tuple[float, float]]] = {}
    buckets, columns = np.nonzero(schedule.present)
    starts = schedule.phase_start[buckets, columns].tolist()
    ends = schedule.phase_end[buckets, columns].tolist()
    for b, p, start, end in zip(buckets.tolist(), columns.tolist(), starts, ends):
        phase = (b, schedule.phase_names[p], start, end)
        assert comm_start[b] - _slack(comm_start[b]) <= start, phase
        assert start <= end <= comm_end[b] + _slack(comm_end[b]), phase
        if end > start:
            by_link.setdefault(schedule.phase_links[p], []).append((start, end))
    for link, spans in by_link.items():
        _assert_disjoint(spans, f"link {link!r}")
    _assert_disjoint(
        [(s, e) for s, e in zip(compress_start, compress_end) if e > s], "compression stream"
    )
    if not schedule.cross_bucket:
        _assert_disjoint(
            [(s, e) for s, e in zip(comm_start, comm_end) if e > s], "serial network lane"
        )
    if schedule.policy == "none" and compress_end:
        assert min(comm_start) >= max(compress_end)
    lane_end = max([schedule.compute_seconds] + compress_end + comm_end)
    assert schedule.iteration_seconds == lane_end + schedule.update_seconds
    bound = iteration_lower_bound(
        ready_seconds=schedule.ready,
        compress_seconds=schedule.compress_end - schedule.compress_start,
        table=schedule_table(schedule),
        compute_seconds=schedule.compute_seconds,
        overlap=schedule.policy,
        update_seconds=schedule.update_seconds,
        cross_bucket_pipeline=schedule.cross_bucket,
    )
    assert bound <= schedule.iteration_seconds, (bound, schedule.iteration_seconds)
    return schedule


def phase_rows(schedule) -> list[tuple[tuple[str, float, float, str], ...]]:
    """Per bucket, ``(name, start, end, link)`` of each present phase in column order."""
    starts = schedule.phase_start.tolist()
    ends = schedule.phase_end.tolist()
    return [
        tuple(
            (schedule.phase_names[p], starts[b][p], ends[b][p], schedule.phase_links[p])
            for p in np.flatnonzero(row).tolist()
        )
        for b, row in enumerate(schedule.present)
    ]


_SCHEDULE_ARRAYS = (
    "ready", "compress_start", "compress_end", "comm_start", "comm_end",
    "phase_start", "phase_end", "present",
)
_SCHEDULE_SCALARS = (
    "policy", "compute_seconds", "update_seconds", "iteration_seconds",
    "serialized_seconds", "cross_bucket", "phase_names", "phase_links",
)


def assert_same_schedule(a, b) -> None:
    """Assert two :class:`~repro.distributed.ScheduleArrays` match exactly.

    Scalars and the phase template compare with ``==``; every array,
    ``present`` included, compares with :func:`numpy.array_equal` (shape and
    every element).
    """
    for name in _SCHEDULE_SCALARS:
        assert getattr(a, name) == getattr(b, name), name
    for name in _SCHEDULE_ARRAYS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
