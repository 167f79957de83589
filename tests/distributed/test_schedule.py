"""Tests for the event-driven iteration schedule simulator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import (
    OVERLAP_POLICIES,
    CollectiveCost,
    CollectivePhase,
    PhaseTable,
    iteration_lower_bound,
    ready_times_from_fractions,
    simulate_iteration_arrays,
    validate_overlap,
)
from repro.distributed.schedule import LOWER_BOUND_SLACK
from tests.schedule_checks import assert_same_schedule, check_schedule, phase_rows, simulate_table


def _reverse_ready(n, compute):
    """Reverse-order readiness over equal-size buckets."""
    return [compute * (n - i) / n for i in range(n)]


def _single_phase(durations, *, ready=None, compute=1.0, **kwargs):
    """Buckets whose all-gather is one network phase: ``(compress, comm)`` pairs."""
    n = len(durations)
    return simulate_iteration_arrays(
        ready_seconds=_reverse_ready(n, compute) if ready is None else ready,
        compress_seconds=[c for c, _ in durations],
        phase_seconds=np.array([m for _, m in durations], dtype=float).reshape(n, 1),
        phase_names=("allgather",),
        phase_links=("net",),
        compute_seconds=compute,
        **kwargs,
    )


def _placed_cost(phases):
    """A collective of explicitly placed ``(name, seconds, start, link)`` phases."""
    return CollectiveCost(
        op="allgather",
        algorithm="test",
        num_workers=2,
        phases=tuple(
            CollectivePhase(name, link, seconds, start=start)
            for name, seconds, start, link in phases
        ),
    )


class TestPolicies:
    def test_none_matches_closed_form_sum(self):
        schedule = _single_phase(
            [(0.2, 0.5), (0.1, 0.4), (0.3, 0.2)], overlap="none", update_seconds=0.05
        )
        check_schedule(schedule)
        assert schedule.iteration_seconds == pytest.approx(1.0 + 0.6 + 1.1 + 0.05)
        assert schedule.iteration_seconds == pytest.approx(schedule.serialized_seconds)

    def test_comm_strictly_faster_on_multi_bucket(self):
        durations = [(0.2, 0.5), (0.1, 0.4), (0.3, 0.2)]
        none = _single_phase(durations, overlap="none")
        comm = _single_phase(durations, overlap="comm")
        assert comm.iteration_seconds < none.iteration_seconds
        assert 0.0 < comm.iteration_seconds < comm.serialized_seconds

    def test_comm_compress_at_least_as_fast_as_comm(self):
        durations = [(0.2, 0.5), (0.1, 0.4), (0.3, 0.2)]
        comm = _single_phase(durations, overlap="comm")
        both = _single_phase(durations, overlap="comm+compress")
        assert both.iteration_seconds < comm.iteration_seconds

    def test_policy_ordering_single_bucket_degenerates(self):
        # One bucket (ready only when backprop completes): nothing to overlap,
        # every policy prices the same critical path.
        totals = {
            policy: _single_phase([(0.3, 0.4)], ready=[1.0], overlap=policy).iteration_seconds
            for policy in OVERLAP_POLICIES
        }
        assert totals["none"] == pytest.approx(1.7)
        assert totals["comm"] == pytest.approx(totals["none"])
        assert totals["comm+compress"] == pytest.approx(totals["none"])

    def test_ragged_last_bucket_schedule(self):
        # A small ragged bucket ready last still serialises correctly on both lanes.
        schedule = _single_phase(
            [(0.2, 0.4), (0.2, 0.4), (0.01, 0.02)], compute=0.5, overlap="comm"
        )
        check_schedule(schedule)
        # Bucket 0 is ready last; its compression cannot start before backprop ends.
        assert schedule.compress_start[0] >= 0.5

    def test_delayed_readiness_gates_every_policy(self):
        # A ready time beyond compute_seconds (delayed readiness) must gate
        # compression under all policies — no gradient compresses before it exists.
        for policy in OVERLAP_POLICIES:
            schedule = _single_phase([(0.5, 0.1)], ready=[2.0], overlap=policy)
            check_schedule(schedule)
            assert schedule.compress_start[0] >= 2.0
            assert schedule.iteration_seconds == pytest.approx(2.6)

    def test_empty_tasks(self):
        schedule = _single_phase([], compute=0.7, overlap="comm", update_seconds=0.1)
        assert schedule.iteration_seconds == pytest.approx(0.8)
        assert check_schedule(schedule).num_buckets == 0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            _single_phase([], overlap="pipelined")
        with pytest.raises(ValueError):
            validate_overlap("overlapped")
        with pytest.raises(ValueError):
            _single_phase([(0.0, 0.0)], ready=[-1.0])
        with pytest.raises(ValueError):
            _single_phase([], compute=-0.1)
        with pytest.raises(ValueError):
            ready_times_from_fractions([1.5], 1.0)
        # Non-finite times would surface as a NaN/inf iteration time.
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                _single_phase([(0.1, 0.2)], compute=bad)
            with pytest.raises(ValueError, match="finite"):
                _single_phase([(0.1, 0.2)], update_seconds=bad)
            with pytest.raises(ValueError, match="finite"):
                _single_phase([(0.1, 0.2)], ready=[bad])
            with pytest.raises(ValueError, match="finite"):
                _single_phase([(bad, 0.2)])
            with pytest.raises(ValueError, match="finite"):
                _single_phase([(0.1, bad)])

    def test_ready_times_from_fractions(self):
        assert ready_times_from_fractions([1.0, 0.5, 0.0], 2.0) == [2.0, 1.0, 0.0]


class TestPhases:
    """Per-phase collective events on the network lane (multi-phase collectives)."""

    PHASES = (("intra-gather", 0.05), ("inter-allgather", 0.3), ("intra-broadcast", 0.1))

    def _phased(self, num_buckets=1, *, ready=None, compute=0.5, overlap="comm"):
        return simulate_iteration_arrays(
            ready_seconds=[0.0] * num_buckets if ready is None else ready,
            compress_seconds=[0.1] * num_buckets,
            phase_seconds=[[seconds for _, seconds in self.PHASES]] * num_buckets,
            phase_names=tuple(name for name, _ in self.PHASES),
            phase_links=("intra", "inter", "intra"),
            compute_seconds=compute,
            overlap=overlap,
        )

    def test_phases_tile_the_comm_span(self):
        schedule = check_schedule(self._phased())
        phases = phase_rows(schedule)[0]
        assert [name for name, _, _, _ in phases] == [name for name, _ in self.PHASES]
        assert phases[0][1] == schedule.comm_start[0]
        assert phases[-1][2] == pytest.approx(schedule.comm_end[0], abs=1e-15)
        for before, after in zip(phases, phases[1:]):
            assert before[2] == pytest.approx(after[1], abs=1e-15)  # serial, gap-free
        for (_, start, end, _), (_, seconds) in zip(phases, self.PHASES):
            assert end - start == pytest.approx(seconds)

    def test_phaseless_collectives_keep_empty_trace(self):
        # A one-worker collective has no phases: no communication at all.
        schedule = simulate_iteration_arrays(
            ready_seconds=[0.0], compress_seconds=[0.1], phase_seconds=np.zeros((1, 0)),
            phase_names=(), phase_links=(), compute_seconds=0.5, overlap="comm",
        )
        check_schedule(schedule)
        assert phase_rows(schedule) == [()]
        assert schedule.comm_end[0] == schedule.comm_start[0]

    @pytest.mark.parametrize("policy", OVERLAP_POLICIES)
    def test_total_time_unchanged_by_phase_breakdown(self, policy):
        # Splitting a bucket's collective into serial phases is bookkeeping:
        # the critical path must match the single-span pricing exactly.
        ready = [1.0 - 0.5 * i for i in range(2)]
        with_phases = self._phased(2, ready=ready, compute=1.0, overlap=policy)
        total = sum(seconds for _, seconds in self.PHASES)
        without = _single_phase([(0.1, total)] * 2, ready=ready, overlap=policy)
        assert with_phases.iteration_seconds == without.iteration_seconds
        assert with_phases.serialized_seconds == without.serialized_seconds

    def test_negative_phase_duration_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            simulate_iteration_arrays(
                ready_seconds=[0.0], compress_seconds=[0.0], phase_seconds=[[-0.5, 0.5]],
                phase_names=("bad", "worse"), phase_links=("a", "a"), compute_seconds=0.0,
            )

    @settings(max_examples=100, deadline=None)
    @given(
        policy=st.sampled_from(OVERLAP_POLICIES),
        compute=st.floats(min_value=0.0, max_value=2.0),
        splits=st.lists(
            st.lists(st.floats(min_value=0.0, max_value=0.5), min_size=1, max_size=4),
            min_size=1,
            max_size=5,
        ),
    )
    def test_lane_consistency_with_random_phase_splits(self, policy, compute, splits):
        # Ragged serial rows share one padded template; the mask hides the
        # padding, so each bucket shows exactly its own phases.
        width = max(len(durations) for durations in splits)
        seconds = np.zeros((len(splits), width))
        mask = np.zeros((len(splits), width), dtype=bool)
        for i, durations in enumerate(splits):
            seconds[i, : len(durations)] = durations
            mask[i, : len(durations)] = True
        schedule = simulate_iteration_arrays(
            ready_seconds=_reverse_ready(len(splits), compute),
            compress_seconds=[0.05] * len(splits),
            phase_seconds=seconds,
            phase_names=tuple(f"phase-{j}" for j in range(width)),
            phase_links=("net",) * width,
            phase_mask=mask,
            compute_seconds=compute,
            overlap=policy,
        )
        check_schedule(schedule)
        rows = phase_rows(schedule)
        for b, phases in enumerate(rows):
            assert len(phases) == len(splits[b])
            assert phases[0][1] == schedule.comm_start[b]
        last_phase_end = max(phases[-1][2] for phases in rows)
        assert schedule.iteration_seconds >= last_phase_end - 1e-12


class TestPlacedPhases:
    """Explicitly placed (pipelined) phases on the network lane."""

    #: Two links, three phases, two chunks: gather/broadcast share link "a",
    #: the exchange runs on link "b"; chunk 1's gather overlaps chunk 0's
    #: exchange — exactly the shape the pipelined hierarchical cost emits.
    PLACED = (
        ("gather[c0]", 0.1, 0.0, "a"),
        ("exchange[c0]", 0.3, 0.1, "b"),
        ("broadcast[c0]", 0.05, 0.4, "a"),
        ("gather[c1]", 0.1, 0.1, "a"),
        ("exchange[c1]", 0.3, 0.4, "b"),
        ("broadcast[c1]", 0.05, 0.7, "a"),
    )

    def _schedule(self, ready, **kwargs):
        return simulate_iteration_arrays(
            ready_seconds=ready,
            compress_seconds=[0.05] * len(ready),
            phase_seconds=[[seconds for _, seconds, _, _ in self.PLACED]] * len(ready),
            phase_offsets=[[start for _, _, start, _ in self.PLACED]] * len(ready),
            phase_names=tuple(name for name, _, _, _ in self.PLACED),
            phase_links=tuple(link for _, _, _, link in self.PLACED),
            compute_seconds=0.2,
            overlap="comm",
            **kwargs,
        )

    def test_placed_phases_ride_at_their_offsets(self):
        schedule = check_schedule(self._schedule([0.0]))
        phases = phase_rows(schedule)[0]
        comm_start = schedule.comm_start[0]
        assert len(phases) == len(self.PLACED)
        for (name, start, end, link), placed in zip(phases, self.PLACED):
            assert (name, link) == (placed[0], placed[3])
            assert start == pytest.approx(comm_start + placed[2])
            assert end == pytest.approx(start + placed[1])
        assert max(end for _, _, end, _ in phases) == pytest.approx(schedule.comm_end[0])

    def test_comm_time_is_the_placed_makespan(self):
        schedule = self._schedule([0.2, 0.1, 0.0])
        check_schedule(schedule)
        # The collective ends with chunk 1's broadcast at 0.7 + 0.05.
        assert schedule.total_comm_seconds == pytest.approx(3 * 0.75)

    @pytest.mark.parametrize("cross", [False, True])
    def test_same_link_phases_never_overlap_in_trace(self, cross):
        check_schedule(self._schedule([0.2, 0.1], cross_bucket_pipeline=cross))

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            simulate_iteration_arrays(
                ready_seconds=[0.0], compress_seconds=[0.0], phase_seconds=[[0.2]],
                phase_offsets=[[-0.1]], phase_names=("p0",), phase_links=("a",),
                compute_seconds=0.0,
            )

    @settings(max_examples=100, deadline=None)
    @given(
        policy=st.sampled_from(OVERLAP_POLICIES),
        chunks=st.integers(min_value=2, max_value=8),
        payload=st.floats(min_value=1e4, max_value=1e8),
        num_buckets=st.integers(min_value=1, max_value=4),
    )
    def test_lane_consistency_with_pipelined_collective_costs(
        self, policy, chunks, payload, num_buckets
    ):
        # End-to-end shape check: real pipelined hierarchical costs, packed
        # into one table, must schedule with exclusive per-link lanes and an
        # exactly-summing comm total.
        from repro.distributed import COLLECTIVE_ALGORITHMS, ClusterTopology, NetworkModel

        topology = ClusterTopology(
            num_nodes=4,
            devices_per_node=4,
            inter_node=NetworkModel(bandwidth_gbps=10.0, latency_s=5e-5, name="inter"),
            intra_node=NetworkModel(bandwidth_gbps=100.0, latency_s=5e-6, name="intra"),
        )
        cost = COLLECTIVE_ALGORITHMS["hierarchical"].cost(
            topology, "allgather", payload, pipeline_chunks=chunks
        )
        table = PhaseTable.from_costs([cost] * num_buckets)
        assert table.totals.tolist() == [cost.total] * num_buckets
        schedule = simulate_table(
            table,
            ready_seconds=_reverse_ready(num_buckets, 1.0),
            compress_seconds=[0.01] * num_buckets,
            compute_seconds=1.0,
            overlap=policy,
        )
        check_schedule(schedule)
        assert schedule.total_comm_seconds == pytest.approx(num_buckets * cost.total, rel=1e-12)
        assert [len(phases) for phases in phase_rows(schedule)] == [len(cost.phases)] * num_buckets


@st.composite
def _workloads(draw):
    compute = draw(st.floats(min_value=0.0, max_value=2.0))
    n = draw(st.integers(min_value=1, max_value=8))
    fractions = sorted(
        draw(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=n, max_size=n)),
        reverse=True,
    )
    durations = [
        (
            draw(st.floats(min_value=0.0, max_value=1.0)),
            draw(st.floats(min_value=0.0, max_value=1.0)),
        )
        for _ in range(n)
    ]
    ready = [f * compute for f in fractions]
    update = draw(st.floats(min_value=0.0, max_value=0.2))
    return durations, ready, compute, update


class TestCriticalPathBounds:
    @settings(max_examples=200, deadline=None)
    @given(workload=_workloads(), policy=st.sampled_from(OVERLAP_POLICIES))
    def test_bounded_by_serial_sum_and_resource_lower_bound(self, workload, policy):
        durations, ready, compute, update = workload
        schedule = _single_phase(
            durations, ready=ready, compute=compute, overlap=policy, update_seconds=update
        )
        total_compress = sum(c for c, _ in durations)
        total_comm = sum(m for _, m in durations)
        serial = compute + total_compress + total_comm + update
        # Never better than keeping each resource lane 100% busy...
        lower = max(compute, total_comm, total_compress) + update
        # ...never worse than serialising everything.
        assert lower - 1e-9 <= schedule.iteration_seconds <= serial + 1e-9
        assert schedule.serialized_seconds == pytest.approx(serial)

    @settings(max_examples=100, deadline=None)
    @given(workload=_workloads())
    def test_stronger_policies_never_slower(self, workload):
        durations, ready, compute, update = workload
        totals = [
            _single_phase(
                durations, ready=ready, compute=compute, overlap=policy, update_seconds=update
            ).iteration_seconds
            for policy in ("none", "comm", "comm+compress")
        ]
        assert totals[0] + 1e-9 >= totals[1] >= totals[2] - 1e-9

    @settings(max_examples=100, deadline=None)
    @given(workload=_workloads(), policy=st.sampled_from(OVERLAP_POLICIES))
    def test_event_trace_is_consistent(self, workload, policy):
        durations, ready, compute, update = workload
        schedule = _single_phase(
            durations, ready=ready, compute=compute, overlap=policy, update_seconds=update
        )
        check_schedule(schedule)
        assert schedule.num_buckets == len(durations)
        compress, comm = np.array(durations).reshape(-1, 2).T
        assert schedule.compress_end == pytest.approx(schedule.compress_start + compress)
        assert schedule.comm_end == pytest.approx(schedule.comm_start + comm)


class TestLowerBound:
    """``iteration_lower_bound``; ``check_schedule`` asserts its soundness everywhere."""

    @settings(max_examples=100, deadline=None)
    @given(workload=_workloads())
    def test_flat_sum_without_overlap(self, workload):
        durations, ready, compute, update = workload
        inputs = dict(
            ready_seconds=ready,
            compress_seconds=[c for c, _ in durations],
            phase_seconds=[[m, m / 3.0] for _, m in durations],
            phase_links=("intra", "inter"),
            compute_seconds=compute,
            update_seconds=update,
        )
        schedule = simulate_iteration_arrays(**inputs, phase_names=("gather", "exchange"))
        bound = iteration_lower_bound(**inputs)
        assert bound <= schedule.iteration_seconds
        assert bound == pytest.approx(schedule.iteration_seconds, rel=2 * LOWER_BOUND_SLACK)

    def test_leaves_room_for_the_overlap_a_template_fit_tolerates(self):
        # A cross-bucket fit accepts a phase that overlaps a committed span on
        # its link by up to 1e-12 of its end.  Packed that tightly, 4000
        # one-second phases end ~8e-6 s early: more than the slack alone.
        phases = 4000
        end = 0.0
        for _ in range(phases):
            end = end + 1.0 - 0.99e-12 * max(1.0, end + 1.0)
        bound = iteration_lower_bound(
            ready_seconds=np.zeros(phases),
            compress_seconds=np.zeros(phases),
            phase_seconds=np.ones((phases, 1)),
            phase_links=("net",),
            compute_seconds=0.0,
            overlap="comm+compress",
            cross_bucket_pipeline=True,
        )
        assert phases * (1.0 - LOWER_BOUND_SLACK) > end
        assert bound <= end

    def test_absent_phases_count_for_nothing(self):
        kwargs = dict(
            ready_seconds=[0.0, 0.0],
            compress_seconds=[0.0, 0.0],
            phase_links=("a", "b"),
            compute_seconds=0.0,
            overlap="comm",
        )
        masked = iteration_lower_bound(
            phase_seconds=[[1.0, 5.0], [1.0, 0.0]],
            phase_offsets=[[0.0, 9.0], [0.0, 0.0]],
            phase_mask=[[True, False], [True, True]],
            **kwargs,
        )
        assert masked == iteration_lower_bound(phase_seconds=[[1.0, 0.0], [1.0, 0.0]], **kwargs)


class TestCrossBucketPipeline:
    """Per-link network lanes: buckets overlap wherever they use different fabrics."""

    def _schedule(self, n=3, compute=0.3, *, cross=False, overlap="comm"):
        """Serial hierarchical-style template: gather (intra "a"), exchange
        (inter "b"), broadcast (intra "a") — placed back-to-back."""
        return simulate_iteration_arrays(
            ready_seconds=_reverse_ready(n, compute),
            compress_seconds=[0.02] * n,
            phase_seconds=[[0.1, 0.5, 0.08]] * n,
            phase_names=("gather", "exchange", "broadcast"),
            phase_links=("a", "b", "a"),
            compute_seconds=compute,
            overlap=overlap,
            cross_bucket_pipeline=cross,
        )

    def test_flag_off_matches_default_bit_for_bit(self):
        base = self._schedule()
        off = self._schedule(cross=False)
        assert_same_schedule(off, base)
        assert not off.cross_bucket

    def test_cross_bucket_overlaps_intra_under_inter(self):
        serial = self._schedule()
        cross = self._schedule(cross=True)
        check_schedule(cross)
        assert cross.cross_bucket
        assert cross.iteration_seconds < serial.iteration_seconds
        # Steady state: the inter lane stays contiguous, so each later bucket
        # saves one gather + one broadcast of serial-lane time.
        spans = sorted(zip(cross.comm_start.tolist(), cross.comm_end.tolist()))
        for before, after in zip(spans, spans[1:]):
            assert after[0] < before[1]  # whole occupancies overlap
        # The bucket's internal placement rides rigidly at its new offset.
        assert cross.phase_start[:, 0] == pytest.approx(cross.comm_start)
        assert cross.phase_end[:, -1] == pytest.approx(cross.comm_end)

    def test_single_link_buckets_degenerate_to_serial_lane(self):
        # Phases all on one fabric: nothing to overlap, the per-link lanes
        # reproduce the serial lane exactly.
        for policy in OVERLAP_POLICIES:
            serial = _single_phase([(0.01, 0.2)] * 3, compute=0.3, overlap=policy)
            cross = _single_phase(
                [(0.01, 0.2)] * 3, compute=0.3, overlap=policy, cross_bucket_pipeline=True
            )
            check_schedule(cross)
            assert cross.iteration_seconds == serial.iteration_seconds
            assert cross.comm_start.tolist() == serial.comm_start.tolist()
            assert cross.comm_end.tolist() == serial.comm_end.tolist()

    def test_non_bool_flag_rejected(self):
        with pytest.raises(ValueError, match="cross_bucket_pipeline"):
            _single_phase([], compute=0.1, cross_bucket_pipeline=1)
        from repro.distributed import validate_cross_bucket

        assert validate_cross_bucket(True) is True
        with pytest.raises(ValueError, match="bool"):
            validate_cross_bucket("false")

    def test_empty_tasks_cross_bucket(self):
        schedule = _single_phase(
            [], compute=0.5, overlap="comm", update_seconds=0.1, cross_bucket_pipeline=True
        )
        assert schedule.iteration_seconds == pytest.approx(0.6)
        assert schedule.link_utilization() == {}


@st.composite
def _linked_workloads(draw):
    """Buckets whose collectives chain randomly-linked phases back-to-back."""
    compute = draw(st.floats(min_value=0.0, max_value=1.0))
    n = draw(st.integers(min_value=1, max_value=6))
    costs = []
    for _ in range(n):
        num_phases = draw(st.integers(min_value=1, max_value=4))
        durations = draw(
            st.lists(
                st.floats(min_value=0.0, max_value=0.5), min_size=num_phases, max_size=num_phases
            )
        )
        links = draw(
            st.lists(
                st.sampled_from(["intra", "inter", "bus"]),
                min_size=num_phases,
                max_size=num_phases,
            )
        )
        phases = []
        cursor = 0.0
        for j, (seconds, link) in enumerate(zip(durations, links)):
            phases.append((f"phase-{j}", seconds, cursor, link))
            cursor += seconds
        costs.append(_placed_cost(phases))
    compress = [draw(st.floats(min_value=0.0, max_value=0.2)) for _ in range(n)]
    update = draw(st.floats(min_value=0.0, max_value=0.1))
    return PhaseTable.from_costs(costs), costs, compress, compute, update


def _run_linked(workload, policy, cross):
    table, costs, compress, compute, update = workload
    return simulate_table(
        table,
        ready_seconds=_reverse_ready(len(costs), compute),
        compress_seconds=compress,
        compute_seconds=compute,
        overlap=policy,
        update_seconds=update,
        cross_bucket_pipeline=cross,
    )


class TestCrossBucketInvariants:
    @settings(max_examples=150, deadline=None)
    @given(workload=_linked_workloads(), policy=st.sampled_from(OVERLAP_POLICIES))
    def test_per_link_exclusivity_across_buckets(self, workload, policy):
        check_schedule(_run_linked(workload, policy, cross=True))

    @settings(max_examples=150, deadline=None)
    @given(workload=_linked_workloads(), policy=st.sampled_from(OVERLAP_POLICIES))
    def test_pipelined_never_slower_than_serial_lane(self, workload, policy):
        serial = _run_linked(workload, policy, cross=False)
        cross = _run_linked(workload, policy, cross=True)
        assert cross.iteration_seconds <= serial.iteration_seconds + 1e-9
        # Every bucket starts no later than on the serial lane.
        assert np.all(cross.comm_start <= serial.comm_start + 1e-9)

    @settings(max_examples=150, deadline=None)
    @given(workload=_linked_workloads(), policy=st.sampled_from(OVERLAP_POLICIES))
    def test_total_comm_seconds_conserved(self, workload, policy):
        costs = workload[1]
        cross = _run_linked(workload, policy, cross=True)
        assert cross.total_comm_seconds == pytest.approx(
            sum(cost.total for cost in costs), rel=1e-12, abs=1e-12
        )
        # Rigid sliding: each bucket's internal placement is preserved.
        check_schedule(cross)
        for b, (phases, cost) in enumerate(zip(phase_rows(cross), costs)):
            comm_start = cross.comm_start[b]
            assert cross.comm_end[b] - comm_start == pytest.approx(cost.total)
            for (_, start, end, link), placed in zip(phases, cost.phases):
                assert start - comm_start == pytest.approx(placed.start, abs=1e-12)
                assert end - start == pytest.approx(placed.seconds, abs=1e-12)
                assert link == placed.link

    def test_sub_resolution_phase_does_not_stall_template_fit(self):
        # Regression: the second bucket ends with a 2.7e-155 s phase on "bus",
        # a zero-width span at float resolution.  Committing it made the first
        # bucket's bus phase bump to a start that rounded back to itself, and
        # the template fit looped forever.
        table = PhaseTable.from_costs([
            _placed_cost([("exchange", 0.26467745411261984, 0.0, "inter"),
                          ("gather", 0.5, 0.26467745411261984, "bus")]),
            _placed_cost([("a", 0.5, 0.0, "intra"), ("b", 0.25, 0.5, "intra"),
                          ("tiny", 2.6597885605377292e-155, 0.75, "bus")]),
        ])
        schedule = simulate_table(
            table,
            ready_seconds=[0.5, 0.125],
            compress_seconds=[0.0, 0.07625499513491063],
            compute_seconds=0.5,
            overlap="comm+compress",
            cross_bucket_pipeline=True,
        )
        check_schedule(schedule)
        assert schedule.comm_start.tolist() == [0.5, 0.20125499513491063]

    @settings(max_examples=80, deadline=None)
    @given(
        policy=st.sampled_from(OVERLAP_POLICIES),
        chunks=st.integers(min_value=1, max_value=8),
        payloads=st.lists(st.floats(min_value=1e4, max_value=1e8), min_size=1, max_size=4),
    )
    def test_invariants_hold_for_real_pipelined_collectives(self, policy, chunks, payloads):
        # Chunk-placed hierarchical costs (gapped, possibly ragged templates)
        # through the collective model's own table: exclusivity and
        # conservation must survive template sliding too.
        from repro.distributed import ClusterTopology, CollectiveModel, NetworkModel

        topology = ClusterTopology(
            num_nodes=4,
            devices_per_node=4,
            inter_node=NetworkModel(bandwidth_gbps=10.0, latency_s=5e-5, name="inter"),
            intra_node=NetworkModel(bandwidth_gbps=100.0, latency_s=5e-6, name="intra"),
        )
        model = CollectiveModel(
            topology, allgather_algorithm="hierarchical", pipeline_chunks=chunks
        )
        table = model.allgather_phase_table(payloads, [None] * len(payloads))
        expected = [model.allgather_cost(payload).total for payload in payloads]
        assert table.totals.tolist() == expected
        kwargs = dict(
            ready_seconds=_reverse_ready(len(payloads), 1.0),
            compress_seconds=[0.01] * len(payloads),
            compute_seconds=1.0,
            overlap=policy,
        )
        serial = simulate_table(table, **kwargs)
        cross = simulate_table(table, cross_bucket_pipeline=True, **kwargs)
        check_schedule(serial)
        check_schedule(cross)
        assert cross.iteration_seconds <= serial.iteration_seconds + 1e-9
        assert cross.total_comm_seconds == pytest.approx(sum(expected), rel=1e-12)


class TestLinkUtilization:
    def test_busy_seconds_sum_phase_durations(self, two_fabric_schedule):
        for cross in (False, True):
            util = two_fabric_schedule(cross).link_utilization()
            assert util["intra"]["busy_seconds"] == pytest.approx(3 * 0.18)
            assert util["inter"]["busy_seconds"] == pytest.approx(3 * 0.5)

    def test_cross_bucket_raises_link_utilization(self, two_fabric_schedule):
        serial = two_fabric_schedule(False).link_utilization()
        cross = two_fabric_schedule(True).link_utilization()
        # Same busy time over a shorter window on every fabric.
        for link in ("intra", "inter"):
            assert cross[link]["window_seconds"] < serial[link]["window_seconds"]
            assert cross[link]["utilization"] > serial[link]["utilization"]
        assert cross["inter"]["utilization"] <= 1.0 + 1e-9

    def test_unnamed_link_reported_under_empty_key(self):
        schedule = simulate_iteration_arrays(
            ready_seconds=[0.0], compress_seconds=[0.0], phase_seconds=[[0.4]],
            phase_names=("allgather",), phase_links=("",), compute_seconds=0.1, overlap="comm",
        )
        util = schedule.link_utilization()
        assert set(util) == {""}
        assert util[""]["busy_seconds"] == pytest.approx(0.4)
        assert util[""]["utilization"] == pytest.approx(1.0)

    @pytest.mark.parametrize("cross", [False, True])
    def test_no_communication_at_all_reports_no_lanes(self, cross):
        # Regression: every bucket compresses but ships nothing, so no event
        # contributes to the window.  The window start must not be left at a
        # sentinel that leaks inf/NaN into utilizations — the contract is an
        # empty dict, same as a schedule with no buckets.
        schedule = simulate_iteration_arrays(
            ready_seconds=[0.0] * 3, compress_seconds=[0.1] * 3, phase_seconds=np.zeros((3, 0)),
            phase_names=(), phase_links=(), compute_seconds=0.1, overlap="comm",
            cross_bucket_pipeline=cross,
        )
        assert schedule.link_utilization() == {}


class TestPr4GoldenSchedules:
    """Golden pins captured at the PR-4 head (commit 562d90d).

    The workload prices four buckets' hierarchical all-gathers on the
    ``ethernet-4x8`` preset (serial phases and ``pipeline_chunks=4``) and
    schedules them on the serial network lane.  The
    ``cross_bucket_pipeline=False`` default must reproduce every number
    bit-for-bit — no scheduler refactor may perturb the PR-4 schedules.
    """

    PAYLOADS = (2_000_000.0, 1_500_000.0, 1_000_000.0, 500_000.0)
    COMPUTE = 0.05
    UPDATE = 0.001

    #: (collective, policy) -> (iteration_seconds, ((comm_start, comm_end), ...))
    GOLDEN = {
        ("serial", "none"): (0.36137904761904766, ((0.2403414285714286, 0.36037904761904765), (0.1502657142857143, 0.2403414285714286), (0.09015190476190478, 0.1502657142857143), (0.06000000000000001, 0.09015190476190478))),
        ("serial", "comm"): (0.35537904761904765, ((0.2343414285714286, 0.35437904761904765), (0.1442657142857143, 0.2343414285714286), (0.08415190476190477, 0.1442657142857143), (0.054000000000000006, 0.08415190476190477))),
        ("serial", "comm+compress"): (0.3178790476190476, ((0.19684142857142858, 0.3168790476190476), (0.1067657142857143, 0.19684142857142858), (0.04665190476190477, 0.1067657142857143), (0.0165, 0.04665190476190477))),
        ("chunked", "none"): (0.3441790476190476, ((0.2302914285714286, 0.3431790476190476), (0.1454657142857143, 0.2302914285714286), (0.08870190476190477, 0.1454657142857143), (0.06000000000000001, 0.08870190476190477))),
        ("chunked", "comm"): (0.3381790476190476, ((0.22429142857142859, 0.3371790476190476), (0.1394657142857143, 0.22429142857142859), (0.08270190476190477, 0.1394657142857143), (0.054000000000000006, 0.08270190476190477))),
        ("chunked", "comm+compress"): (0.3006790476190476, ((0.18679142857142858, 0.2996790476190476), (0.1019657142857143, 0.18679142857142858), (0.04520190476190476, 0.1019657142857143), (0.0165, 0.04520190476190476))),
    }

    @pytest.mark.parametrize("collective", ["serial", "chunked"])
    @pytest.mark.parametrize("policy", OVERLAP_POLICIES)
    def test_serial_lane_reproduces_pr4_head(self, collective, policy):
        from repro.distributed import CollectiveModel, get_topology

        chunks = 4 if collective == "chunked" else 1
        model = CollectiveModel(
            get_topology("ethernet-4x8"),
            allgather_algorithm="hierarchical",
            pipeline_chunks=chunks,
        )
        n = len(self.PAYLOADS)
        schedule = simulate_table(
            model.allgather_phase_table(self.PAYLOADS, [None] * n),
            ready_seconds=_reverse_ready(n, self.COMPUTE),
            compress_seconds=[0.001 * (i + 1) for i in range(n)],
            compute_seconds=self.COMPUTE,
            overlap=policy,
            update_seconds=self.UPDATE,
            cross_bucket_pipeline=False,
        )
        check_schedule(schedule)
        golden_total, golden_spans = self.GOLDEN[(collective, policy)]
        assert schedule.iteration_seconds == golden_total
        assert tuple(zip(schedule.comm_start.tolist(), schedule.comm_end.tolist())) == golden_spans
