"""Hypothesis property suite for the collective-algorithm layer.

Invariants pinned here:

* every algorithm's per-phase costs sum to its total (phases are serial),
* totals are monotone in the payload size and in the participant count
  (adding a node or a device never makes a collective cheaper),
* a single worker collapses every collective to zero cost,
* the degenerate single-level model equals the ``NetworkModel`` closed forms
  bit-for-bit for random links, worker counts and payloads,
* hierarchical all-gather beats flat all-gather whenever the intra-node link
  clears the derived crossover factor.  Note the honest precondition: merely
  matching the inter-node bandwidth is *not* sufficient, because the
  hierarchical schedule must move the full gathered aggregate over the
  intra-node link as well (see :func:`hierarchical_crossover_factor`).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import (
    COLLECTIVE_ALGORITHMS,
    DEDUP_ASSUMPTIONS,
    ClusterTopology,
    CollectiveModel,
    LinkLevel,
    NetworkModel,
    PhaseTable,
    SparseAggregateModel,
    get_topology,
    simulate_iteration_arrays,
)
from tests.schedule_checks import check_schedule

ALGORITHM_OPS = [
    (name, op)
    for name, algo in sorted(COLLECTIVE_ALGORITHMS.items())
    for op in algo.supported_ops
]
ALLGATHER_ALGORITHMS = [name for name, op in ALGORITHM_OPS if op == "allgather"]


@st.composite
def networks(draw, *, name: str = "link"):
    return NetworkModel(
        bandwidth_gbps=draw(st.floats(min_value=0.1, max_value=400.0)),
        latency_s=draw(st.floats(min_value=0.0, max_value=1e-3)),
        efficiency=draw(st.floats(min_value=0.05, max_value=1.0)),
        name=name,
    )


@st.composite
def topologies(draw, *, min_nodes: int = 1, min_devices: int = 1):
    return ClusterTopology(
        num_nodes=draw(st.integers(min_value=min_nodes, max_value=6)),
        devices_per_node=draw(st.integers(min_value=min_devices, max_value=6)),
        inter_node=draw(networks(name="inter")),
        intra_node=draw(networks(name="intra")),
    )


payloads = st.floats(min_value=0.0, max_value=1e9)


class TestAlgorithmInvariants:
    @settings(max_examples=150, deadline=None)
    @given(topology=topologies(), num_bytes=payloads, algorithm_op=st.sampled_from(ALGORITHM_OPS))
    def test_phase_costs_sum_to_total(self, topology, num_bytes, algorithm_op):
        name, op = algorithm_op
        cost = COLLECTIVE_ALGORITHMS[name].cost(topology, op, num_bytes)
        assert cost.total == pytest.approx(sum(p.seconds for p in cost.phases), abs=1e-15)
        assert all(p.seconds >= 0.0 for p in cost.phases)
        assert all(p.volume_bytes >= 0.0 for p in cost.phases)

    @settings(max_examples=150, deadline=None)
    @given(
        topology=topologies(),
        num_bytes=payloads,
        scale=st.floats(min_value=1.0, max_value=100.0),
        algorithm_op=st.sampled_from(ALGORITHM_OPS),
    )
    def test_monotone_in_payload_bytes(self, topology, num_bytes, scale, algorithm_op):
        name, op = algorithm_op
        algo = COLLECTIVE_ALGORITHMS[name]
        smaller = algo.cost(topology, op, num_bytes).total
        larger = algo.cost(topology, op, num_bytes * scale).total
        assert larger >= smaller - 1e-12

    @settings(max_examples=150, deadline=None)
    @given(
        grown=st.booleans().flatmap(
            lambda grow_nodes: st.tuples(
                st.just(grow_nodes),
                # Growing 1 -> 2 nodes switches the flat collectives' bottleneck
                # from the intra- to the inter-node link, which may be faster —
                # monotonicity only holds within one link regime, so node
                # growth starts from multi-node topologies.
                topologies(min_nodes=2 if grow_nodes else 1),
            )
        ),
        num_bytes=payloads,
        algorithm_op=st.sampled_from(ALGORITHM_OPS),
    )
    def test_monotone_in_worker_count(self, grown, num_bytes, algorithm_op):
        grow_nodes, topology = grown
        name, op = algorithm_op
        algo = COLLECTIVE_ALGORITHMS[name]
        bigger = ClusterTopology(
            num_nodes=topology.num_nodes + (1 if grow_nodes else 0),
            devices_per_node=topology.devices_per_node + (0 if grow_nodes else 1),
            inter_node=topology.inter_node,
            intra_node=topology.intra_node,
        )
        before = algo.cost(topology, op, num_bytes).total
        after = algo.cost(bigger, op, num_bytes).total
        assert after >= before - 1e-12

    @settings(max_examples=50, deadline=None)
    @given(
        inter=networks(), intra=networks(), num_bytes=payloads,
        algorithm_op=st.sampled_from(ALGORITHM_OPS),
    )
    def test_single_worker_is_free(self, inter, intra, num_bytes, algorithm_op):
        name, op = algorithm_op
        topology = ClusterTopology(1, 1, inter_node=inter, intra_node=intra)
        cost = COLLECTIVE_ALGORITHMS[name].cost(topology, op, num_bytes)
        assert cost.total == 0.0
        assert cost.phases == ()


class TestDegenerateFlatModel:
    @settings(max_examples=150, deadline=None)
    @given(
        network=networks(),
        num_workers=st.integers(min_value=1, max_value=64),
        num_bytes=payloads,
    )
    def test_reproduces_network_closed_forms_exactly(self, network, num_workers, num_bytes):
        model = CollectiveModel.flat(network, num_workers)
        assert model.allreduce_cost(num_bytes).total == network.allreduce_time(num_bytes, num_workers)
        assert model.allgather_cost(num_bytes).total == network.allgather_time(num_bytes, num_workers)


@st.composite
def crossover_cleared_topologies(draw):
    """Two-level topologies whose intra link clears the hierarchical crossover.

    The sufficient condition derived in :func:`hierarchical_crossover_factor`:
    intra latency no higher than inter latency and intra *effective* bandwidth
    at least ``(N+D-2)/(D-1)`` times the inter effective bandwidth.
    """
    num_nodes = draw(st.integers(min_value=2, max_value=6))
    devices = draw(st.integers(min_value=2, max_value=8))
    inter = draw(networks(name="inter"))
    factor = (num_nodes * devices + devices - 2) / (devices - 1)
    margin = draw(st.floats(min_value=1.0, max_value=8.0))
    intra = NetworkModel(
        bandwidth_gbps=inter.bandwidth_gbps * inter.efficiency * factor * margin,
        latency_s=inter.latency_s * draw(st.floats(min_value=0.0, max_value=1.0)),
        efficiency=1.0,
        name="intra",
    )
    return ClusterTopology(num_nodes, devices, inter_node=inter, intra_node=intra)


class TestHierarchicalVsFlat:
    @settings(max_examples=200, deadline=None)
    @given(topology=crossover_cleared_topologies(), num_bytes=payloads)
    def test_hierarchical_never_slower_above_crossover(self, topology, num_bytes):
        hier = COLLECTIVE_ALGORITHMS["hierarchical"].cost(topology, "allgather", num_bytes)
        flat = COLLECTIVE_ALGORITHMS["flat-allgather"].cost(topology, "allgather", num_bytes)
        assert hier.total <= flat.total * (1.0 + 1e-12) + 1e-15

    @settings(max_examples=100, deadline=None)
    @given(topology=topologies(min_nodes=2, min_devices=2), num_bytes=payloads)
    def test_hierarchical_saves_inter_node_volume(self, topology, num_bytes):
        # Whatever the link speeds, the hierarchical all-gather always moves
        # less (or equal) volume over the inter-node fabric than the flat ring.
        hier = COLLECTIVE_ALGORITHMS["hierarchical"].cost(topology, "allgather", num_bytes)
        flat = COLLECTIVE_ALGORITHMS["flat-allgather"].cost(topology, "allgather", num_bytes)
        hier_inter = sum(p.volume_bytes for p in hier.phases if p.link == "inter")
        assert hier_inter <= sum(p.volume_bytes for p in flat.phases) + 1e-9


densities = st.floats(min_value=1e-6, max_value=1.0)
chunk_counts = st.integers(min_value=2, max_value=16)
dedup_models = st.sampled_from([None, *(SparseAggregateModel(a) for a in DEDUP_ASSUMPTIONS)])


class TestDedupInvariants:
    @settings(max_examples=200, deadline=None)
    @given(
        assumption=st.sampled_from(DEDUP_ASSUMPTIONS),
        density=densities,
        participants=st.integers(min_value=1, max_value=64),
        payload=st.floats(min_value=0.0, max_value=1e9),
    )
    def test_union_payload_bounded_by_max_and_sum(self, assumption, density, participants, payload):
        model = SparseAggregateModel(assumption)
        union = payload * model.union_factor(density, participants)
        # Never smaller than the largest contribution, never larger than the
        # concatenation of all of them (nor the dense bucket itself).
        assert payload - 1e-12 <= union <= participants * payload + 1e-9
        assert union <= (payload / density) * (1.0 + 1e-9) + 1e-9

    @settings(max_examples=200, deadline=None)
    @given(
        assumption=st.sampled_from(DEDUP_ASSUMPTIONS),
        density=densities,
        scale=st.floats(min_value=1.0, max_value=1e4),
        participants=st.integers(min_value=1, max_value=64),
    )
    def test_union_factor_monotone_in_density(self, assumption, density, scale, participants):
        # Denser selections overlap more, so the union factor (and with it the
        # deduplicated payload per contributed byte) only shrinks as density
        # grows.
        model = SparseAggregateModel(assumption)
        sparser = model.union_factor(min(density, 1.0), participants)
        denser = model.union_factor(min(density * scale, 1.0), participants)
        assert denser <= sparser + 1e-12

    @settings(max_examples=200, deadline=None)
    @given(density=densities, participants=st.integers(min_value=1, max_value=64))
    def test_assumption_ordering(self, density, participants):
        identical = SparseAggregateModel("identical").union_factor(density, participants)
        uniform = SparseAggregateModel("uniform").union_factor(density, participants)
        disjoint = SparseAggregateModel("disjoint").union_factor(density, participants)
        assert identical - 1e-12 <= uniform <= disjoint + 1e-12

    @settings(max_examples=150, deadline=None)
    @given(
        topology=topologies(min_nodes=2, min_devices=2),
        num_bytes=payloads,
        density=densities,
        dedup=dedup_models,
    )
    def test_dedup_never_costs_more_than_raw_concatenation(
        self, topology, num_bytes, density, dedup
    ):
        algo = COLLECTIVE_ALGORITHMS["hierarchical"]
        plain = algo.cost(topology, "allgather", num_bytes)
        deduped = algo.cost(topology, "allgather", num_bytes, density=density, dedup=dedup)
        assert deduped.total <= plain.total * (1.0 + 1e-12) + 1e-15
        assert deduped.dedup_ratio >= 1.0 - 1e-12


class TestPipeliningInvariants:
    @settings(max_examples=200, deadline=None)
    @given(
        topology=topologies(),
        num_bytes=payloads,
        chunks=chunk_counts,
        op=st.sampled_from(["allgather", "allreduce"]),
    )
    def test_pipelined_total_bounded_by_serial_and_max_phase(
        self, topology, num_bytes, chunks, op
    ):
        algo = COLLECTIVE_ALGORITHMS["hierarchical"]
        serial = algo.cost(topology, op, num_bytes)
        piped = algo.cost(topology, op, num_bytes, pipeline_chunks=chunks)
        # Never slower than the serial phases, never faster than the busiest
        # single phase (each link still moves all of its bytes).
        assert piped.total <= serial.total * (1.0 + 1e-12) + 1e-15
        max_phase = max((p.seconds for p in serial.phases), default=0.0)
        assert piped.total >= max_phase * (1.0 - 1e-12) - 1e-15

    @settings(max_examples=200, deadline=None)
    @given(
        topology=topologies(min_nodes=2, min_devices=2),
        num_bytes=payloads,
        chunks=chunk_counts,
        density=densities,
        dedup=dedup_models,
    )
    def test_chunk_phase_sums_equal_and_lanes_exclusive(
        self, topology, num_bytes, chunks, density, dedup
    ):
        piped = COLLECTIVE_ALGORITHMS["hierarchical"].cost(
            topology, "allgather", num_bytes,
            pipeline_chunks=chunks, density=density, dedup=dedup,
        )
        if piped.pipeline_chunks == 1:
            return  # chunking lost to the extra latencies: serial fallback
        # Per-chunk phase-sum invariant: every chunk traverses the same
        # serial stage times.
        by_chunk: dict[int, float] = {}
        for phase in piped.phases:
            assert phase.start is not None and phase.start >= 0.0
            by_chunk[phase.chunk] = by_chunk.get(phase.chunk, 0.0) + phase.seconds
        sums = list(by_chunk.values())
        assert set(by_chunk) == set(range(chunks))
        assert all(s == pytest.approx(sums[0], rel=1e-9, abs=1e-15) for s in sums)
        # One link never carries two chunks' phases at once.
        check_schedule(simulate_iteration_arrays(
            table=PhaseTable.from_costs([piped]),
            ready_seconds=[0.0], compress_seconds=[0.0], compute_seconds=0.0, overlap="comm",
        ))

    @settings(max_examples=150, deadline=None)
    @given(topology=topologies(), num_bytes=payloads, chunks=chunk_counts, density=densities)
    def test_volume_preserved_by_chunking(self, topology, num_bytes, chunks, density):
        algo = COLLECTIVE_ALGORITHMS["hierarchical"]
        serial = algo.cost(topology, "allgather", num_bytes)
        piped = algo.cost(topology, "allgather", num_bytes, pipeline_chunks=chunks)
        volumes = [sum(p.volume_bytes for p in cost.phases) for cost in (piped, serial)]
        assert volumes[0] == pytest.approx(volumes[1], rel=1e-9, abs=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(
        network=networks(),
        num_workers=st.integers(min_value=1, max_value=64),
        num_bytes=payloads,
        chunks=chunk_counts,
    )
    def test_single_link_algorithms_unaffected_by_knobs(
        self, network, num_workers, num_bytes, chunks
    ):
        # Flat/ring collectives have nothing to overlap or deduplicate; the
        # knobs must leave the closed forms bit-for-bit alone.
        flat = CollectiveModel.flat(network, num_workers)
        knobs = CollectiveModel.flat(
            network,
            num_workers,
            pipeline_chunks=chunks,
            allgather_dedup=SparseAggregateModel("uniform"),
        )
        assert knobs.allgather_cost(num_bytes, density=0.05).total == flat.allgather_cost(num_bytes).total
        assert knobs.allreduce_cost(num_bytes).total == flat.allreduce_cost(num_bytes).total


MULTI_LEVEL_PRESETS = ["fat-tree-128", "dragonfly-64"]


@st.composite
def level_stacks(draw, *, oversubscribed: bool = False):
    """Random 1-4 deep ``LinkLevel`` stacks, optionally with oversubscription."""
    count = draw(st.integers(min_value=1, max_value=4))
    return tuple(
        LinkLevel(
            fanout=draw(st.integers(min_value=1, max_value=4)),
            link=draw(networks(name=f"l{i}")),
            oversubscription=(
                draw(st.floats(min_value=1.0, max_value=16.0)) if oversubscribed else 1.0
            ),
            name=f"level{i}",
        )
        for i in range(count)
    )


@st.composite
def multi_level_topologies(draw):
    return ClusterTopology.from_levels(draw(level_stacks(oversubscribed=True)), name="hypo-multi")


class TestMultiLevelInvariants:
    """The two-level invariants survive arbitrary-depth fabrics."""

    @settings(max_examples=150, deadline=None)
    @given(
        topology=multi_level_topologies(),
        num_bytes=payloads,
        algorithm_op=st.sampled_from(ALGORITHM_OPS),
    )
    def test_phase_costs_sum_to_total(self, topology, num_bytes, algorithm_op):
        name, op = algorithm_op
        cost = COLLECTIVE_ALGORITHMS[name].cost(topology, op, num_bytes)
        assert cost.total == pytest.approx(sum(p.seconds for p in cost.phases), abs=1e-15)
        assert all(p.seconds >= 0.0 for p in cost.phases)
        assert all(p.volume_bytes >= 0.0 for p in cost.phases)

    @settings(max_examples=150, deadline=None)
    @given(
        topology=multi_level_topologies(),
        num_bytes=payloads,
        scale=st.floats(min_value=1.0, max_value=100.0),
        algorithm_op=st.sampled_from(ALGORITHM_OPS),
    )
    def test_monotone_in_payload_bytes(self, topology, num_bytes, scale, algorithm_op):
        name, op = algorithm_op
        algo = COLLECTIVE_ALGORITHMS[name]
        smaller = algo.cost(topology, op, num_bytes).total
        larger = algo.cost(topology, op, num_bytes * scale).total
        assert larger >= smaller - 1e-12 * max(1.0, smaller)

    @settings(max_examples=150, deadline=None)
    @given(
        stack=level_stacks(),
        factors=st.lists(
            st.floats(min_value=1.0, max_value=16.0), min_size=4, max_size=4
        ),
        num_bytes=payloads,
        algorithm_op=st.sampled_from(ALGORITHM_OPS),
    )
    def test_oversubscription_never_speeds_a_level_up(
        self, stack, factors, num_bytes, algorithm_op
    ):
        # Derating any subset of levels by an oversubscription factor >= 1
        # only shrinks effective bandwidth, so no collective ever gets faster.
        name, op = algorithm_op
        derated_levels = tuple(
            LinkLevel(
                fanout=level.fanout,
                link=level.link,
                oversubscription=factor,
                name=level.name,
            )
            for level, factor in zip(stack, factors)
        )
        clean = ClusterTopology.from_levels(stack, name="clean")
        derated = ClusterTopology.from_levels(derated_levels, name="derated")
        algo = COLLECTIVE_ALGORITHMS[name]
        before = algo.cost(clean, op, num_bytes).total
        after = algo.cost(derated, op, num_bytes).total
        assert after >= before - 1e-12 * max(1.0, before)


class TestMultiLevelPresets:
    """The invariants hold on the shipped fat-tree / dragonfly presets."""

    @settings(max_examples=100, deadline=None)
    @given(
        preset=st.sampled_from(MULTI_LEVEL_PRESETS),
        num_bytes=payloads,
        scale=st.floats(min_value=1.0, max_value=100.0),
        algorithm_op=st.sampled_from(ALGORITHM_OPS),
    )
    def test_phase_sum_and_payload_monotonicity(self, preset, num_bytes, scale, algorithm_op):
        name, op = algorithm_op
        algo = COLLECTIVE_ALGORITHMS[name]
        topology = get_topology(preset)
        cost = algo.cost(topology, op, num_bytes)
        assert cost.total == pytest.approx(sum(p.seconds for p in cost.phases), abs=1e-15)
        assert all(p.seconds >= 0.0 for p in cost.phases)
        larger = algo.cost(topology, op, num_bytes * scale).total
        assert larger >= cost.total - 1e-12 * max(1.0, cost.total)

    @settings(max_examples=75, deadline=None)
    @given(
        algorithm=st.sampled_from(ALLGATHER_ALGORITHMS),
        topology=st.one_of(
            st.sampled_from(MULTI_LEVEL_PRESETS).map(get_topology), multi_level_topologies()
        ),
        buckets=st.lists(
            st.tuples(payloads, st.one_of(st.none(), densities)), min_size=1, max_size=6
        ),
        shared_density=st.booleans(),
        dedup=dedup_models,
    )
    def test_batched_table_rows_match_scalar_pricing(
        self, algorithm, topology, buckets, shared_density, dedup
    ):
        # The vectorized scheduler leans on this: batching must be a pure
        # reshape of the scalar pricing, bit-for-bit, on deep fabrics, whether
        # the buckets share one density (a float factor) or not (an array).
        payload_list = [payload for payload, _ in buckets]
        density_list = [buckets[0][1] if shared_density else d for _, d in buckets]
        model = CollectiveModel(
            topology=topology,
            allgather_algorithm=algorithm,
            allgather_dedup=dedup,
        )
        table = model.allgather_phase_table(np.asarray(payload_list, dtype=float), density_list)
        assert table.seconds.shape[0] == len(payload_list)
        totals = table.totals.tolist()
        seconds = table.seconds.tolist()
        volumes = table.volumes.tolist()
        for b, (payload, density) in enumerate(zip(payload_list, density_list)):
            cost = model.allgather_cost(payload, density=density)
            assert totals[b] == cost.total
            assert seconds[b] == [p.seconds for p in cost.phases]
            assert volumes[b] == [p.volume_bytes for p in cost.phases]
            assert table.dedup_ratios[b] == cost.dedup_ratio
            assert table.names == tuple(p.name for p in cost.phases)
            assert table.links == tuple(p.link for p in cost.phases)
        num_buckets = len(payload_list)
        for cross_bucket in (False, True):
            check_schedule(simulate_iteration_arrays(
                table=table,
                ready_seconds=[0.01 * (num_buckets - b) for b in range(num_buckets)],
                compress_seconds=[0.001] * num_buckets,
                compute_seconds=0.01 * num_buckets,
                overlap="comm+compress",
                cross_bucket_pipeline=cross_bucket,
            ))
