"""The cross-bucket template fit equals the reference bump loop, bit for bit.

``repro.distributed.schedule`` fits each bucket's rigid phase template with a
swept lower bound plus an exact scalar finisher.  These suites run it side by
side with the original restart-from-phase-0 loop
(``tests/distributed/template_fit_reference.py``) and compare the starts with
``==``: on random templates, on the inputs where the check's tolerance
decides (abutting spans, sub-resolution phases, gates exactly at span ends),
on long span lists, and on every fit of the seed-0 cold tuner grid.
"""

from __future__ import annotations

from bisect import insort

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import (
    OVERLAP_POLICIES,
    CollectiveCost,
    CollectivePhase,
    PhaseTable,
    schedule,
)
from repro.harness.sweep import SweepCache, SweepSpec, WorkloadSpec, run_sweep
from tests.distributed.template_fit_reference import _earliest_template_fit as reference_fit
from tests.schedule_checks import check_schedule, simulate_table

#: Durations whose sums round: serial offsets built from them land a phase's
#: end on a committed start within an ulp or two, the abutting case.
GRID = (0.1, 0.2, 0.3, 1.0 / 3.0, 0.7, 0.05, 1e-3, 0.15, 0.25)
#: Zero-second phases (skipped) and phases shorter than the clock's
#: resolution or the check's tolerance (the hang input is 2.66e-155 s).
SLIVERS = (0.0, 2.6597885605377292e-155, 1e-17, 1e-13, 5e-12)


class _Shadowed(schedule._LinkLanes):
    """Lanes that also run the reference fit, on their own span lists.

    The reference sees each bucket's full row, zero-second phases included,
    exactly as the scheduler used to pass it.  ``fit`` returns the reference
    start, so a schedule built on these lanes is the reference schedule, and
    logs every ``(fast, reference)`` pair to ``fits`` when a test sets it.
    """

    fits: list[tuple[float, float]] | None = None

    def __init__(self, links, scale):
        super().__init__(links, scale)
        self.links = links
        self.names = list(dict.fromkeys(links))
        self.reference_spans: dict[str, list[tuple[float, float]]] = {}

    def fit(self, layout, offsets, seconds, gate):
        return self._fit(layout, offsets, seconds, gate)[1]

    def _fit(self, layout, offsets, seconds, gate):
        fast = super().fit(layout, offsets, seconds, gate)
        row = list(zip(offsets.tolist(), seconds.tolist(), self.links))
        pair = (fast, reference_fit(row, gate, self.reference_spans))
        if self.fits is not None:
            self.fits.append(pair)
        return pair

    def commit(self, start, layout):
        super().commit(start, layout)
        for offset, seconds, link in layout:
            span = (start + offset, start + offset + seconds)
            if span[1] > span[0]:
                insort(self.reference_spans.setdefault(self.names[link], []), span)

    def step(self, offsets, seconds, gate):
        """Fit and commit one ``(offsets, seconds)`` row; ``(fast, reference)``."""
        ids = self.link_ids.tolist()
        layout = [(o, s, link) for o, s, link in zip(offsets, seconds, ids) if s > 0.0]
        pair = self._fit(layout, np.array(offsets), np.array(seconds), gate)
        self.commit(pair[1], layout)
        return pair


def _replay(templates, gates, links):
    """``(fast, reference)`` for each template fitted at its gate, in order."""
    scale = max(gates) + sum(max(o + s for o, s in zip(*t)) for t in templates)
    lanes = _Shadowed(links, scale)
    return [lanes.step(*template, gate) for template, gate in zip(templates, gates)]


def _cost(phases):
    """An all-gather of explicitly placed ``(name, seconds, start, link)`` phases."""
    return CollectiveCost(
        op="allgather",
        algorithm="test",
        num_workers=2,
        phases=tuple(
            CollectivePhase(name, link, seconds, start=start)
            for name, seconds, start, link in phases
        ),
    )


def _serial_offsets(seconds):
    offsets, cursor = [], 0.0
    for duration in seconds:
        offsets.append(cursor)
        cursor += duration
    return offsets


_durations = st.one_of(st.sampled_from(GRID), st.floats(min_value=0.0, max_value=0.5))
_durations_with_slivers = st.one_of(_durations, st.sampled_from(SLIVERS))


@st.composite
def _fit_sequences(draw):
    """One lane set: a column template, per-bucket rows and nondecreasing gates."""
    num_phases = draw(st.integers(min_value=1, max_value=5))
    # Few fabrics for many columns: templates often name one link twice.
    links = tuple(
        draw(st.lists(st.sampled_from("abc"), min_size=num_phases, max_size=num_phases))
    )
    num_buckets = draw(st.integers(min_value=1, max_value=30))
    placed = draw(st.booleans())
    # Slivers make a link unfit for the sweep; half the sequences have none.
    durations = draw(st.sampled_from([_durations, _durations_with_slivers]))
    templates = []
    for _ in range(num_buckets):
        seconds = draw(st.lists(durations, min_size=num_phases, max_size=num_phases))
        if placed:
            # Chunk-style placement: explicit offsets, possibly overlapping.
            offsets = draw(
                st.lists(
                    st.one_of(st.sampled_from(GRID), st.floats(0.0, 1.0)),
                    min_size=num_phases, max_size=num_phases,
                )
            )
        else:
            offsets = _serial_offsets(seconds)
        templates.append((offsets, seconds))
    steps = draw(
        st.lists(
            st.one_of(st.just(0.0), st.sampled_from(GRID), st.floats(0.0, 0.3)),
            min_size=num_buckets, max_size=num_buckets,
        )
    )
    gates = np.cumsum(steps).tolist()
    return templates, gates, links


class TestTemplateFitOracle:
    @settings(max_examples=300, deadline=None)
    @given(sequence=_fit_sequences())
    def test_random_templates_match_reference(self, sequence):
        templates, gates, links = sequence
        for fast, expected in _replay(templates, gates, links):
            assert fast == expected

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        links=st.sampled_from([("a", "b", "a", "c", "a"), ("x", "x", "y", "x")]),
        num_buckets=st.integers(min_value=100, max_value=120),
        sliver_share=st.sampled_from([0.0, 0.1]),
    )
    def test_long_span_lists_match_reference(self, seed, links, num_buckets, sliver_share):
        # One early constant gate, as under overlap="none": nothing is ever
        # pruned, the busiest link ends with 300+ spans and late fits bump far.
        rng = np.random.default_rng(seed)
        grid = np.array(GRID)
        templates = []
        for _ in range(num_buckets):
            seconds = grid[rng.integers(len(grid), size=len(links))]
            seconds = np.where(rng.random(len(links)) < sliver_share, 1e-13, seconds).tolist()
            templates.append((_serial_offsets(seconds), seconds))
        pairs = _replay(templates, [0.25] * num_buckets, links)
        assert num_buckets * max(links.count(link) for link in links) >= 300
        assert [fast for fast, _ in pairs] == [expected for _, expected in pairs]

    def test_abutting_spans_resolved_like_reference(self):
        # Every bucket's template is the same serial 0.1/0.2/0.3 chain on two
        # links, so each fit lands a phase end on a committed start within
        # rounding; the tolerance decides, as in the reference.
        seconds = [0.1, 0.2, 0.3, 0.1]
        templates = [(_serial_offsets(seconds), seconds)] * 40
        pairs = _replay(templates, [0.0] * 40, ("a", "b", "a", "b"))
        assert [fast for fast, _ in pairs] == [expected for _, expected in pairs]

    def test_gates_exactly_at_span_ends(self):
        # Each gate is exactly the end of the previous bucket's first-phase
        # span, so the span pruned at that gate ends at the gate itself.
        seconds = [0.1, 0.3, 0.2]
        offsets = _serial_offsets(seconds)
        lanes = _Shadowed(("a", "b", "a"), scale=20.0)
        gate = 0.0
        for _ in range(30):
            fast, expected = lanes.step(offsets, seconds, gate)
            assert fast == expected
            gate = expected + offsets[0] + seconds[0]

    def test_targets_within_tolerance_of_each_other(self, monkeypatch):
        # The last template's first phase lasts 1e-12 s, under the check's
        # tolerance, so two bump targets sit 1e-12 s apart and the tolerance
        # lets either pass.  The loop from the swept bound alone would stop
        # at 0.4; the reference, bumped from the gate, stops just below it.
        templates = [
            ([0.0, 0.1], [0.1, 0.1]),
            ([0.0, 0.1], [0.1, 0.2]),
            ([0.0, 0.1], [0.1, 4.341754557342458e-24]),
            ([0.0, 1e-12], [1e-12, 0.1]),
        ]
        pairs = _replay(templates, [0.0] * 4, ("a", "b"))
        assert pairs[-1] == (0.39999999999900004, 0.39999999999900004)
        monkeypatch.setattr(schedule, "_unambiguous", lambda *args: True)
        assert _replay(templates, [0.0] * 4, ("a", "b"))[-1] == (0.4, 0.39999999999900004)

    def test_feasible_start_where_a_phase_end_rounds_onto_a_span(self):
        # Two scalar bumps (past two spans on "a") reach t = 2, which fits:
        # the second phase ends at 4, two ulps past the start of a span on
        # "b", well inside the check's tolerance.  The sweep must not treat
        # that abutting interval as forbidding t.
        lanes = _Shadowed(("a", "b"), scale=10.0)
        a, b = lanes.link_ids.tolist()
        lanes.commit(0.0, [(0.0, 1.0, a)])
        lanes.commit(1.0, [(0.0, 1.0, a)])
        lanes.commit(np.nextafter(np.nextafter(4.0, 0.0), 0.0), [(0.0, 6.0, b)])
        assert lanes.step([0.0, 1.0], [1.0, 1.0], 0.0) == (2.0, 2.0)

    def test_sub_resolution_phase_matches_reference(self, monkeypatch):
        # The scheduler's sub-resolution hang input: the second bucket ends
        # with a 2.66e-155 s phase on "bus".  Every fit runs shadowed.
        fits: list[tuple[float, float]] = []
        monkeypatch.setattr(_Shadowed, "fits", fits)
        monkeypatch.setattr(schedule, "_LinkLanes", _Shadowed)
        table = PhaseTable.from_costs([
            _cost([("exchange", 0.26467745411261984, 0.0, "inter"),
                   ("gather", 0.5, 0.26467745411261984, "bus")]),
            _cost([("a", 0.5, 0.0, "intra"), ("b", 0.25, 0.5, "intra"),
                   ("tiny", 2.6597885605377292e-155, 0.75, "bus")]),
        ])
        simulate_table(
            table,
            ready_seconds=[0.5, 0.125],
            compress_seconds=[0.0, 0.07625499513491063],
            compute_seconds=0.5,
            overlap="comm+compress",
            cross_bucket_pipeline=True,
        )
        assert fits == [(0.20125499513491063, 0.20125499513491063), (0.5, 0.5)]

    def test_sweep_engages_and_never_overshoots(self, monkeypatch):
        # Long-list fits must go through the swept lower bound, and the bound
        # must never pass the reference start.
        sweeps = []
        sweep = schedule._LinkLanes._sweep

        def spy(self, *args):
            result = sweep(self, *args)
            sweeps.append(result)
            return result

        monkeypatch.setattr(schedule._LinkLanes, "_sweep", spy)
        seconds = [0.1, 0.2, 0.3, 1.0 / 3.0, 0.05]
        offsets = _serial_offsets(seconds)
        lanes = _Shadowed(("a", "b", "c", "b", "a"), scale=100.0)
        swept = 0
        for _ in range(80):
            before = len(sweeps)
            fast, expected = lanes.step(offsets, seconds, 0.0)
            assert fast == expected
            for result in sweeps[before:]:
                if result is not None:
                    swept += 1
                    assert result[0] <= expected
        assert swept >= 70


MiB = 2**20
#: The end-to-end benchmark's cache-cold tuner grid.
COLD_AXES = {
    "compressor": ("topk", "dgc", "sidco-e"),
    "ratio": (0.1, 0.01, 0.001),
    "bucket_bytes": (MiB, 4 * MiB),
    "overlap": ("comm+compress",),
    "allgather_algorithm": ("hierarchical",),
    "dedup_assumption": (None, "uniform"),
    "cross_bucket_pipeline": (False, True),
    "scheduler_backend": ("vectorized",),
}


def test_cold_tuner_grid_fits_match_reference(monkeypatch):
    # Every template fit of the seed-0 cache-cold tuner grid on fat-tree-128,
    # replayed against the reference on the same span lists.  The grid is
    # priced exhaustively: the tuner itself schedules only the points that
    # can win.
    fits: list[tuple[float, float]] = []
    monkeypatch.setattr(_Shadowed, "fits", fits)
    monkeypatch.setattr(schedule, "_LinkLanes", _Shadowed)
    workload = WorkloadSpec.from_benchmark("vgg16-cifar10", seed=0)
    grid = SweepSpec(workloads=(workload,), axes={**COLD_AXES, "topology": ("fat-tree-128",)})
    run_sweep(grid, cache=SweepCache())
    assert len(fits) > 1000
    assert [fast for fast, _ in fits] == [expected for _, expected in fits]


@st.composite
def _ragged_tables(draw):
    """Chunk-placed, ragged tables: per-bucket phases on shared link columns."""
    num_buckets = draw(st.integers(min_value=1, max_value=8))
    costs = []
    for _ in range(num_buckets):
        num_phases = draw(st.integers(min_value=1, max_value=4))
        phases = []
        for j in range(num_phases):
            seconds = draw(st.one_of(st.sampled_from(GRID), st.floats(0.0, 0.5)))
            start = draw(st.one_of(st.sampled_from(GRID), st.floats(0.0, 0.5)))
            link = draw(st.sampled_from(["intra", "inter", "bus"]))
            # Chunk-pipelined collectives never run two phases on one link at
            # once; keep this bucket's own phases disjoint per link.
            busy = [(s, s + d) for _, d, s, name in phases if name == link]
            if any(start < end and start + seconds > begin for begin, end in busy):
                start = max([end for _, end in busy])
            phases.append((f"phase-{j}", seconds, start, link))
        costs.append(_cost(phases))
    return PhaseTable.from_costs(costs)


class TestCrossBucketNeverLater:
    @settings(max_examples=150, deadline=None)
    @given(
        table=_ragged_tables(),
        policy=st.sampled_from(OVERLAP_POLICIES),
        comm_scale=st.sampled_from([1.0, 0.3, 1.7, 2.5]),
        compute=st.floats(min_value=0.0, max_value=1.0),
        compress=st.floats(min_value=0.0, max_value=0.2),
    )
    def test_no_bucket_ends_later_than_on_the_serial_lane(
        self, table, policy, comm_scale, compute, compress
    ):
        n = table.seconds.shape[0]
        kwargs = dict(
            ready_seconds=[compute * (n - i) / n for i in range(n)],
            compress_seconds=[compress] * n,
            compute_seconds=compute,
            overlap=policy,
            comm_scale=comm_scale,
        )
        serial = check_schedule(simulate_table(table, **kwargs))
        cross = check_schedule(simulate_table(table, cross_bucket_pipeline=True, **kwargs))
        # Rigid sliding never starts a bucket after the serial lane would.
        # A committed phase ends at (start + offset) + seconds, rounded apart
        # from the bucket's start + total, so the lanes may differ by ulps.
        slack = 1e-12 * np.maximum(1.0, serial.comm_end)
        assert np.all(cross.comm_end <= serial.comm_end + slack)
        assert cross.iteration_seconds <= serial.iteration_seconds * (1.0 + 1e-12)


@pytest.mark.parametrize("policy", OVERLAP_POLICIES)
def test_schedules_with_shadowed_lanes_are_unchanged(monkeypatch, policy):
    # The oracle lanes return the reference start; a schedule built on them
    # must equal the fast scheduler's, bit for bit.
    seconds = np.array([[0.1, 0.2, 0.3, 1.0 / 3.0]] * 24)
    kwargs = dict(
        ready_seconds=np.linspace(1.0, 0.0, 24),
        compress_seconds=np.full(24, 0.01),
        phase_seconds=seconds,
        phase_names=("a0", "b0", "a1", "b1"),
        phase_links=("a", "b", "a", "b"),
        compute_seconds=1.0,
        overlap=policy,
        cross_bucket_pipeline=True,
    )
    fast = schedule.simulate_iteration_arrays(**kwargs)
    monkeypatch.setattr(schedule, "_LinkLanes", _Shadowed)
    shadowed = schedule.simulate_iteration_arrays(**kwargs)
    assert fast.comm_start.tolist() == shadowed.comm_start.tolist()
    assert fast.iteration_seconds == shadowed.iteration_seconds
