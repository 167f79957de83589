"""One checker for the invariants every simulated iteration must satisfy.

Scheduler tests, property suites and golden-pin tests all run their schedules
through :func:`check_schedule` instead of re-stating the invariants locally.
"""

from __future__ import annotations

from repro.distributed import simulate_iteration_arrays

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


def check_schedule(schedule):
    """Assert the invariants of one simulated iteration; return its event view.

    Accepts a :class:`~repro.distributed.ScheduleArrays` or the
    :class:`~repro.distributed.IterationSchedule` view it builds, and checks:

    * causality: ``ready <= compress_start <= compress_end <= comm_start
      <= comm_end`` for every bucket, plus the overlap policy's gates
      (compression waits for the backward pass unless it overlaps it; with
      ``overlap="none"`` no all-gather starts before the last compression);
    * the compression stream runs one job at a time, and so does the
      network when buckets share one serial lane;
    * every link carries one phase at a time, across all buckets;
    * every placed phase lies inside its bucket's ``[comm_start, comm_end]``;
    * ``iteration_seconds`` equals the latest lane end (compute, compression
      stream, network) plus the update, exactly.
    """
    view = schedule.to_schedule() if hasattr(schedule, "to_schedule") else schedule
    events = view.events
    by_link: dict[str, list[tuple[float, float]]] = {}
    for event in events:
        assert (
            event.ready
            <= event.compress_start
            <= event.compress_end
            <= event.comm_start
            <= event.comm_end
        ), f"bucket {event.index} breaks causality: {event!r}"
        if view.policy != "comm+compress":
            assert event.compress_start >= view.compute_seconds
        for phase in event.phases:
            assert event.comm_start - _slack(event.comm_start) <= phase.start, phase
            assert phase.start <= phase.end <= event.comm_end + _slack(event.comm_end), phase
            if phase.end > phase.start:
                by_link.setdefault(phase.link, []).append((phase.start, phase.end))
    for link, spans in by_link.items():
        _assert_disjoint(spans, f"link {link!r}")
    _assert_disjoint(
        [(e.compress_start, e.compress_end) for e in events if e.compress_end > e.compress_start],
        "compression stream",
    )
    if not view.cross_bucket:
        _assert_disjoint(
            [(e.comm_start, e.comm_end) for e in events if e.comm_end > e.comm_start],
            "serial network lane",
        )
    if view.policy == "none" and events:
        last_compress = max(e.compress_end for e in events)
        assert all(e.comm_start >= last_compress for e in events)
    lane_end = max(
        [view.compute_seconds]
        + [e.compress_end for e in events]
        + [e.comm_end for e in events]
    )
    assert view.iteration_seconds == lane_end + view.update_seconds
    return view


def simulate_table(table, *, ready_seconds, compress_seconds, **kwargs):
    """Schedule a :class:`~repro.distributed.PhaseTable`'s buckets directly."""
    return simulate_iteration_arrays(
        ready_seconds=ready_seconds,
        compress_seconds=compress_seconds,
        phase_seconds=table.seconds,
        phase_names=table.names,
        phase_links=table.links,
        phase_offsets=table.offsets,
        phase_mask=table.mask,
        **kwargs,
    )
