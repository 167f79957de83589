"""Tests for the cluster topology and collective-algorithm layer."""

import math

import numpy as np
import pytest

from repro.distributed import (
    COLLECTIVE_ALGORITHMS,
    DEDUP_ASSUMPTIONS,
    TOPOLOGIES,
    ClusterTopology,
    CollectiveModel,
    LinkLevel,
    NetworkModel,
    SparseAggregateModel,
    get_collective_algorithm,
    get_network,
    get_topology,
    hierarchical_crossover_factor,
    validate_pipeline_chunks,
)
from repro.distributed.network import CLUSTER_ETHERNET_10G, NODE_INFINIBAND_100G

ETH = NetworkModel(bandwidth_gbps=10.0, latency_s=50e-6, name="eth", efficiency=1.0)
FAST = NetworkModel(bandwidth_gbps=400.0, latency_s=2e-6, name="fast", efficiency=1.0)


def two_level(num_nodes=4, devices_per_node=8):
    return ClusterTopology(
        num_nodes=num_nodes,
        devices_per_node=devices_per_node,
        inter_node=ETH,
        intra_node=FAST,
        name="test-2level",
    )


class TestClusterTopology:
    def test_worker_count_and_levels(self):
        topo = two_level(4, 8)
        assert topo.num_workers == 32
        assert not topo.is_single_level
        assert topo.bottleneck_link is ETH

    def test_single_node_bottleneck_is_intra(self):
        topo = ClusterTopology(num_nodes=1, devices_per_node=8, inter_node=ETH, intra_node=FAST)
        assert topo.is_single_level
        assert topo.bottleneck_link is FAST

    def test_flat_constructor(self):
        topo = ClusterTopology.flat(ETH, 8)
        assert topo.num_workers == 8
        assert topo.devices_per_node == 1
        assert topo.is_single_level
        assert topo.bottleneck_link is ETH
        assert "eth" in topo.name

    @pytest.mark.parametrize("kwargs", [{"num_nodes": 0}, {"devices_per_node": 0}])
    def test_invalid_shape_rejected(self, kwargs):
        base = dict(num_nodes=2, devices_per_node=2, inter_node=ETH, intra_node=FAST)
        with pytest.raises(ValueError):
            ClusterTopology(**{**base, **kwargs})

    def test_flat_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            ClusterTopology.flat(ETH, 0)


class TestAlgorithmRegistry:
    def test_known_algorithms(self):
        assert set(COLLECTIVE_ALGORITHMS) == {
            "ring-allreduce",
            "recursive-doubling",
            "flat-allgather",
            "hierarchical",
        }

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown collective algorithm"):
            get_collective_algorithm("tree-allreduce")

    def test_unsupported_op_rejected(self):
        with pytest.raises(ValueError, match="does not model"):
            get_collective_algorithm("flat-allgather", op="allreduce")
        with pytest.raises(ValueError, match="does not model"):
            get_collective_algorithm("ring-allreduce", op="allgather")

    def test_cost_rejects_unknown_op_and_negative_bytes(self):
        algo = get_collective_algorithm("ring-allreduce")
        with pytest.raises(ValueError, match="unknown collective op"):
            algo.cost(ClusterTopology.flat(ETH, 4), "broadcast", 1.0)
        with pytest.raises(ValueError, match="non-negative"):
            algo.cost(ClusterTopology.flat(ETH, 4), "allreduce", -1.0)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf], ids=["negative", "nan", "inf"])
    @pytest.mark.parametrize(
        "algorithm,op,entry",
        [
            (name, op, entry)
            for name, algo in sorted(COLLECTIVE_ALGORITHMS.items())
            for op in algo.supported_ops
            for entry in (("cost", "table") if op == "allgather" else ("cost",))
        ],
    )
    def test_bad_payloads_rejected_at_every_entry_point(self, algorithm, op, entry, bad):
        # A NaN payload once priced as a free collective and a negative one
        # as negative seconds; both entry points share one payload check,
        # whether the table is serial or chunk-pipelined.
        for chunks in (1, 4):
            model = CollectiveModel(
                two_level(4, 8),
                allreduce_algorithm=algorithm if op == "allreduce" else "ring-allreduce",
                allgather_algorithm=algorithm if op == "allgather" else "flat-allgather",
                pipeline_chunks=chunks,
            )
            with pytest.raises(ValueError, match="finite and non-negative"):
                if entry == "table":
                    model.allgather_phase_table(np.array([4096.0, bad]), [None, None])
                elif op == "allreduce":
                    model.allreduce_cost(bad)
                else:
                    model.allgather_cost(bad)


class TestRingAllreduce:
    def test_two_phases_sum_to_closed_form(self):
        topo = ClusterTopology.flat(ETH, 8)
        cost = get_collective_algorithm("ring-allreduce").cost(topo, "allreduce", 4e6)
        assert [p.name for p in cost.phases] == ["reduce-scatter", "ring-allgather"]
        assert cost.phases[0].seconds == cost.phases[1].seconds
        assert cost.total == ETH.allreduce_time(4e6, 8)

    def test_volume_matches_ring(self):
        topo = ClusterTopology.flat(ETH, 8)
        cost = get_collective_algorithm("ring-allreduce").cost(topo, "allreduce", 8e6)
        # 2(N-1)/N of the buffer crosses each link.
        assert cost.volume_bytes == pytest.approx(2 * 7 / 8 * 8e6)


class TestFlatAllgather:
    def test_single_phase_matches_closed_form(self):
        topo = ClusterTopology.flat(ETH, 8)
        cost = get_collective_algorithm("flat-allgather").cost(topo, "allgather", 1e5)
        assert [p.name for p in cost.phases] == ["ring-allgather"]
        assert cost.total == ETH.allgather_time(1e5, 8)
        assert cost.volume_bytes == pytest.approx(7e5)

    def test_multi_node_gated_by_inter_link(self):
        topo = two_level(4, 8)
        cost = get_collective_algorithm("flat-allgather").cost(topo, "allgather", 1e5)
        assert cost.phases[0].link == "eth"
        assert cost.total == ETH.allgather_time(1e5, 32)


class TestRecursiveDoubling:
    def test_allreduce_round_count_and_latency_bound_win(self):
        topo = ClusterTopology.flat(ETH, 8)
        algo = get_collective_algorithm("recursive-doubling")
        cost = algo.cost(topo, "allreduce", 1e3)
        assert len(cost.phases) == 3  # log2(8)
        # Tiny payloads are latency-bound: 3 latencies beat the ring's 14.
        assert cost.total < ETH.allreduce_time(1e3, 8)
        # Large payloads are bandwidth-bound: shipping the full buffer each
        # round loses to the ring's 1/N chunks.
        assert algo.cost(topo, "allreduce", 1e8).total > ETH.allreduce_time(1e8, 8)

    def test_allgather_volume_matches_ring_for_power_of_two(self):
        topo = ClusterTopology.flat(ETH, 8)
        cost = get_collective_algorithm("recursive-doubling").cost(topo, "allgather", 1e4)
        assert cost.volume_bytes == pytest.approx(7e4)  # (N-1) payloads total
        assert cost.total < ETH.allgather_time(1e4, 8)  # 3 latencies vs 7

    def test_non_power_of_two_rounds(self):
        topo = ClusterTopology.flat(ETH, 5)
        cost = get_collective_algorithm("recursive-doubling").cost(topo, "allgather", 1e4)
        assert len(cost.phases) == 3  # ceil(log2(5))
        # The capped final round keeps the total volume at (N-1) payloads.
        assert cost.volume_bytes == pytest.approx(4e4)


class TestHierarchical:
    def test_allgather_phase_structure(self):
        topo = two_level(4, 8)
        cost = get_collective_algorithm("hierarchical").cost(topo, "allgather", 1e5)
        assert [p.name for p in cost.phases] == [
            "intra-gather",
            "inter-allgather",
            "intra-broadcast",
        ]
        assert [p.link for p in cost.phases] == ["fast", "eth", "fast"]
        # Inter-node ring carries one node-aggregate per node: (M-1) * D * p.
        assert cost.phases[1].volume_bytes == pytest.approx(3 * 8 * 1e5)

    def test_single_device_per_node_collapses_to_flat(self):
        topo = ClusterTopology(num_nodes=8, devices_per_node=1, inter_node=ETH, intra_node=FAST)
        hier = get_collective_algorithm("hierarchical").cost(topo, "allgather", 1e5)
        flat = get_collective_algorithm("flat-allgather").cost(topo, "allgather", 1e5)
        assert hier.total == flat.total
        assert [p.name for p in hier.phases] == ["inter-allgather"]

    def test_single_node_uses_only_intra_phases(self):
        topo = ClusterTopology(num_nodes=1, devices_per_node=8, inter_node=ETH, intra_node=FAST)
        cost = get_collective_algorithm("hierarchical").cost(topo, "allgather", 1e5)
        assert {p.link for p in cost.phases} == {"fast"}

    def test_single_worker_is_free(self):
        topo = ClusterTopology(num_nodes=1, devices_per_node=1, inter_node=ETH, intra_node=FAST)
        for op in ("allreduce", "allgather"):
            cost = get_collective_algorithm("hierarchical").cost(topo, op, 1e6)
            assert cost.phases == ()
            assert cost.total == 0.0

    def test_allreduce_collapses_to_ring_when_single_device(self):
        topo = ClusterTopology(num_nodes=8, devices_per_node=1, inter_node=ETH, intra_node=FAST)
        hier = get_collective_algorithm("hierarchical").cost(topo, "allreduce", 4e6)
        assert hier.total == ETH.allreduce_time(4e6, 8)

    def test_beats_flat_on_fast_intra_fabric(self):
        topo = two_level(4, 8)
        assert FAST.bytes_per_second / ETH.bytes_per_second > hierarchical_crossover_factor(topo)
        hier = get_collective_algorithm("hierarchical").cost(topo, "allgather", 4e6)
        flat = get_collective_algorithm("flat-allgather").cost(topo, "allgather", 4e6)
        assert hier.total < flat.total

    def test_crossover_factor(self):
        assert hierarchical_crossover_factor(two_level(4, 8)) == pytest.approx(38 / 7)
        assert hierarchical_crossover_factor(ClusterTopology.flat(ETH, 8)) == math.inf


class TestCollectiveModel:
    def test_validates_algorithm_choices(self):
        topo = ClusterTopology.flat(ETH, 4)
        with pytest.raises(ValueError):
            CollectiveModel(topo, allreduce_algorithm="flat-allgather")
        with pytest.raises(ValueError):
            CollectiveModel(topo, allgather_algorithm="ring-allreduce")
        with pytest.raises(ValueError):
            CollectiveModel(topo, allgather_algorithm="nccl")

    def test_recursive_doubling_serves_both_ops(self):
        model = CollectiveModel(
            ClusterTopology.flat(ETH, 8),
            allreduce_algorithm="recursive-doubling",
            allgather_algorithm="recursive-doubling",
        )
        assert model.allreduce_time(1e6) > 0.0
        assert model.allgather_time(1e6) > 0.0

    def test_num_workers_comes_from_topology(self):
        assert CollectiveModel(two_level(2, 3)).num_workers == 6


class TestTopologyPresets:
    def test_registry_contents(self):
        assert set(TOPOLOGIES) == {
            "cluster1",
            "cluster1-25g",
            "cluster2",
            "ethernet-4x8",
            "torus-2d",
            "fat-tree-128",
            "dragonfly-64",
        }

    def test_cluster1_mirrors_appendix_d(self):
        topo = get_topology("cluster1")
        assert (topo.num_nodes, topo.devices_per_node) == (8, 1)
        assert topo.inter_node is CLUSTER_ETHERNET_10G
        assert get_topology("cluster1-25g").inter_node.name == "ethernet-25g"

    def test_cluster2_mirrors_appendix_d(self):
        topo = get_topology("cluster2")
        assert (topo.num_nodes, topo.devices_per_node) == (1, 8)
        assert topo.bottleneck_link is NODE_INFINIBAND_100G

    def test_lookup_by_full_name(self):
        assert get_topology("cluster1-ethernet-10g") is get_topology("cluster1")
        assert get_topology("ETHERNET-4X8") is TOPOLOGIES["ethernet-4x8"]

    def test_unknown_lists_keys_and_full_names(self):
        # The error must enumerate every available preset (short keys and
        # full names alike) so a typo is self-diagnosing — the same contract
        # get_network's lookup carries.
        with pytest.raises(ValueError, match="unknown topology") as excinfo:
            get_topology("cluster3")
        message = str(excinfo.value)
        for key in TOPOLOGIES:
            assert key in message
        for topology in TOPOLOGIES.values():
            assert topology.name in message

    def test_torus_2d_preset_shape(self):
        topo = get_topology("torus-2d")
        assert (topo.num_nodes, topo.devices_per_node) == (4, 4)
        assert topo.num_workers == 16
        assert not topo.is_single_level
        # Row rings are the faster 25g fabric, column rings the 10g one.
        assert topo.intra_node.name == "ethernet-25g"
        assert topo.inter_node.name == "ethernet-10g"
        assert get_topology("TORUS-2D") is TOPOLOGIES["torus-2d"]

    def test_ethernet_4x8_clears_the_crossover(self):
        topo = get_topology("ethernet-4x8")
        ratio = topo.intra_node.bytes_per_second / topo.inter_node.bytes_per_second
        assert ratio > hierarchical_crossover_factor(topo)

    def test_presets_price_flat_like_their_network(self):
        # Cluster 1 is single-level, so every algorithm reduces to the 10g
        # Ethernet closed forms.
        topo = get_topology("cluster1")
        model = CollectiveModel(topo)
        assert model.allreduce_time(4e6) == get_network("10g").allreduce_time(4e6, 8)
        assert model.allgather_time(1e5) == get_network("10g").allgather_time(1e5, 8)


class TestLinkLevel:
    def test_validation(self):
        with pytest.raises(ValueError, match="fanout"):
            LinkLevel(0, ETH)
        with pytest.raises(ValueError, match="oversubscription"):
            LinkLevel(4, ETH, oversubscription=0.5)

    def test_effective_link_identity_without_oversubscription(self):
        # Object identity, not just equality: the two-level degenerate case
        # must keep `topo.bottleneck_link is <link>` pins intact.
        assert LinkLevel(4, ETH).effective_link is ETH

    def test_oversubscription_derates_bandwidth_only(self):
        level = LinkLevel(4, ETH, oversubscription=4.0)
        effective = level.effective_link
        assert effective.bandwidth_gbps == ETH.bandwidth_gbps / 4.0
        assert effective.latency_s == ETH.latency_s
        assert effective.efficiency == ETH.efficiency
        assert effective.name == "eth/os4"


class TestMultiLevelTopology:
    def _three_level(self):
        return ClusterTopology.from_levels(
            (
                LinkLevel(4, FAST, name="node"),
                LinkLevel(2, ETH, name="rack"),
                LinkLevel(3, ETH, oversubscription=2.0, name="core"),
            ),
            name="test-3level",
        )

    def test_from_levels_derives_summary_fields(self):
        topo = self._three_level()
        assert topo.num_levels == 3
        assert topo.devices_per_node == 4
        assert topo.num_nodes == 6
        assert topo.num_workers == 24
        assert topo.intra_node is FAST
        assert topo.inter_node.name == "eth/os2"
        assert topo.bottleneck_link.name == "eth/os2"

    def test_from_levels_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            ClusterTopology.from_levels(())

    def test_inconsistent_summary_fields_rejected(self):
        with pytest.raises(ValueError, match="from_levels"):
            ClusterTopology(
                num_nodes=2,
                devices_per_node=2,
                inter_node=ETH,
                intra_node=FAST,
                levels=(LinkLevel(4, FAST), LinkLevel(3, ETH)),
            )

    def test_synthesized_levels_match_two_level_fields(self):
        topo = two_level(4, 8)
        assert topo.num_levels == 2
        assert [level.name for level in topo.levels] == ["intra", "inter"]
        assert topo.levels[0].fanout == 8 and topo.levels[0].link is FAST
        assert topo.levels[1].fanout == 4 and topo.levels[1].link is ETH

    def test_two_level_from_levels_prices_like_legacy(self):
        # from_levels with two un-oversubscribed levels must be bit-for-bit
        # the legacy two-level constructor, phases included.
        legacy = two_level(4, 8)
        rebuilt = ClusterTopology.from_levels(
            (LinkLevel(8, FAST, name="intra"), LinkLevel(4, ETH, name="inter"))
        )
        for algorithm in ("hierarchical", "recursive-doubling", "flat-allgather"):
            a = get_collective_algorithm(algorithm, op="allgather")
            assert a.cost(legacy, "allgather", 1e6) == a.cost(rebuilt, "allgather", 1e6)
        h = get_collective_algorithm("hierarchical", op="allreduce")
        assert h.cost(legacy, "allreduce", 1e6) == h.cost(rebuilt, "allreduce", 1e6)

    def test_trivial_middle_level_adds_no_phases(self):
        with_trivial = ClusterTopology.from_levels(
            (LinkLevel(4, FAST, name="node"), LinkLevel(1, ETH, name="rack"),
             LinkLevel(3, ETH, name="core"))
        )
        without = ClusterTopology.from_levels(
            (LinkLevel(4, FAST, name="node"), LinkLevel(3, ETH, name="core"))
        )
        h = get_collective_algorithm("hierarchical", op="allgather")
        cost_with = h.cost(with_trivial, "allgather", 1e6)
        cost_without = h.cost(without, "allgather", 1e6)
        assert [p.name for p in cost_with.phases] == [p.name for p in cost_without.phases]
        assert cost_with.total == cost_without.total

    def test_hierarchical_phase_names_follow_level_names(self):
        h = get_collective_algorithm("hierarchical", op="allgather")
        cost = h.cost(self._three_level(), "allgather", 1e6)
        assert [p.name for p in cost.phases] == [
            "node-gather", "rack-gather", "core-allgather", "rack-broadcast",
            "node-broadcast",
        ]

    def test_oversubscription_never_cheapens_a_collective(self):
        levels = (LinkLevel(4, FAST, name="node"), LinkLevel(4, ETH, name="core"))
        base = ClusterTopology.from_levels(levels)
        oversubscribed = ClusterTopology.from_levels(
            (levels[0], LinkLevel(4, ETH, oversubscription=3.0, name="core"))
        )
        for algorithm in ("hierarchical", "flat-allgather", "recursive-doubling"):
            a = get_collective_algorithm(algorithm, op="allgather")
            assert (
                a.cost(oversubscribed, "allgather", 1e6).total
                >= a.cost(base, "allgather", 1e6).total
            )

    def test_fat_tree_128_preset_shape(self):
        topo = get_topology("fat-tree-128")
        assert topo.num_nodes == 128
        assert topo.devices_per_node == 8
        assert topo.num_workers == 1024
        assert topo.num_levels == 4
        assert [level.name for level in topo.levels] == ["node", "rack", "pod", "core"]
        assert topo.bottleneck_link.name == "ethernet-10g/os4"
        assert not topo.is_single_level

    def test_dragonfly_64_preset_shape(self):
        topo = get_topology("dragonfly-64")
        assert topo.num_nodes == 64
        assert topo.devices_per_node == 4
        assert topo.num_workers == 256
        assert topo.num_levels == 3
        assert [level.name for level in topo.levels] == ["node", "group", "global"]
        assert topo.bottleneck_link.name == "ethernet-10g/os2"


class TestSparseAggregateModel:
    def test_known_assumptions(self):
        assert DEDUP_ASSUMPTIONS == ("uniform", "identical", "disjoint")
        for assumption in DEDUP_ASSUMPTIONS:
            SparseAggregateModel(assumption)

    def test_unknown_assumption_rejected(self):
        with pytest.raises(ValueError, match="unknown dedup assumption"):
            SparseAggregateModel("correlated")

    def test_uniform_closed_form(self):
        model = SparseAggregateModel("uniform")
        # n(1 - (1 - rho)^D) / k with rho = 0.1, D = 8.
        assert model.union_factor(0.1, 8) == pytest.approx((1 - 0.9**8) / 0.1)
        assert model.union_factor(0.5, 2) == pytest.approx(1.5)

    def test_bounds_identical_and_disjoint(self):
        identical = SparseAggregateModel("identical")
        disjoint = SparseAggregateModel("disjoint")
        uniform = SparseAggregateModel("uniform")
        assert identical.union_factor(0.05, 8) == 1.0
        assert disjoint.union_factor(0.05, 8) == 8.0
        assert 1.0 < uniform.union_factor(0.05, 8) < 8.0

    def test_union_capped_by_dense_bucket(self):
        # 8 workers at 30% density cannot select more than the whole bucket.
        assert SparseAggregateModel("disjoint").union_factor(0.3, 8) == pytest.approx(1 / 0.3)
        assert SparseAggregateModel("uniform").union_factor(0.3, 8) <= 1 / 0.3

    def test_single_participant_is_identity(self):
        for assumption in DEDUP_ASSUMPTIONS:
            assert SparseAggregateModel(assumption).union_factor(0.01, 1) == 1.0

    def test_union_payload_and_dedup_ratio(self):
        model = SparseAggregateModel("uniform")
        factor = model.union_factor(0.1, 4)
        assert model.union_payload_bytes(1000.0, 0.1, 4) == pytest.approx(1000.0 * factor)
        assert model.dedup_ratio(0.1, 4) == pytest.approx(4 / factor)

    def test_invalid_inputs_rejected(self):
        model = SparseAggregateModel()
        with pytest.raises(ValueError, match="density"):
            model.union_factor(0.0, 4)
        with pytest.raises(ValueError, match="density"):
            model.union_factor(1.5, 4)
        with pytest.raises(ValueError, match="participants"):
            model.union_factor(0.1, 0)
        with pytest.raises(ValueError, match="non-negative"):
            model.union_payload_bytes(-1.0, 0.1, 4)


class TestDedupAllgather:
    def test_dedup_shrinks_inter_payload(self):
        topo = two_level(4, 8)
        plain = get_collective_algorithm("hierarchical").cost(topo, "allgather", 1e5)
        dedup = get_collective_algorithm("hierarchical").cost(
            topo, "allgather", 1e5, density=0.1, dedup=SparseAggregateModel("uniform")
        )
        factor = SparseAggregateModel("uniform").union_factor(0.1, 8)
        plain_inter = next(p for p in plain.phases if p.name == "inter-allgather")
        dedup_inter = next(p for p in dedup.phases if p.name == "inter-allgather")
        assert dedup_inter.volume_bytes == pytest.approx(3 * factor * 1e5)
        assert dedup_inter.volume_bytes < plain_inter.volume_bytes
        assert dedup.total < plain.total
        assert dedup.dedup_ratio == pytest.approx(8 / factor)
        assert plain.dedup_ratio == 1.0

    def test_broadcast_ships_global_union(self):
        topo = two_level(4, 8)
        dedup = get_collective_algorithm("hierarchical").cost(
            topo, "allgather", 1e5, density=0.1, dedup=SparseAggregateModel("uniform")
        )
        factor_n = SparseAggregateModel("uniform").union_factor(0.1, 32)
        broadcast = next(p for p in dedup.phases if p.name == "intra-broadcast")
        assert broadcast.volume_bytes == pytest.approx((factor_n - 1.0) * 1e5)

    def test_no_density_disables_dedup(self):
        topo = two_level(4, 8)
        plain = get_collective_algorithm("hierarchical").cost(topo, "allgather", 1e5)
        no_density = get_collective_algorithm("hierarchical").cost(
            topo, "allgather", 1e5, dedup=SparseAggregateModel("uniform")
        )
        assert no_density.total == plain.total
        assert no_density.dedup_ratio == 1.0

    def test_disjoint_at_low_density_matches_no_dedup_exactly(self):
        # No-overlap selections concatenate without shrinking, so the bound
        # coincides with the PR-3 no-dedup pricing (until the dense cap bites).
        topo = two_level(4, 8)
        plain = get_collective_algorithm("hierarchical").cost(topo, "allgather", 1e5)
        disjoint = get_collective_algorithm("hierarchical").cost(
            topo, "allgather", 1e5, density=0.01, dedup=SparseAggregateModel("disjoint")
        )
        assert disjoint.total == plain.total
        assert [p.seconds for p in disjoint.phases] == [p.seconds for p in plain.phases]

    def test_single_device_nodes_have_no_reduce_point(self):
        topo = ClusterTopology(num_nodes=8, devices_per_node=1, inter_node=ETH, intra_node=FAST)
        dedup = get_collective_algorithm("hierarchical").cost(
            topo, "allgather", 1e5, density=0.01, dedup=SparseAggregateModel("uniform")
        )
        plain = get_collective_algorithm("hierarchical").cost(topo, "allgather", 1e5)
        assert dedup.total == plain.total
        assert dedup.dedup_ratio == 1.0

    def test_flat_allgather_ignores_dedup(self):
        # A flat ring has no reduce point: raw payloads circulate verbatim.
        topo = two_level(4, 8)
        plain = get_collective_algorithm("flat-allgather").cost(topo, "allgather", 1e5)
        dedup = get_collective_algorithm("flat-allgather").cost(
            topo, "allgather", 1e5, density=0.1, dedup=SparseAggregateModel("uniform")
        )
        assert dedup.total == plain.total
        assert dedup.dedup_ratio == 1.0


class TestPipelinedHierarchical:
    def _cost(self, chunks, payload=4e6, topo=None, **kwargs):
        topo = topo or two_level(4, 8)
        return get_collective_algorithm("hierarchical").cost(
            topo, "allgather", payload, pipeline_chunks=chunks, **kwargs
        )

    def test_chunks_1_is_bit_for_bit_serial(self):
        serial = self._cost(1)
        assert not serial.is_pipelined
        assert serial.pipeline_chunks == 1
        assert all(p.start is None and p.chunk is None for p in serial.phases)
        assert serial.total == serial.serial_seconds

    def test_pipelined_beats_serial_on_bandwidth_bound_payload(self):
        serial = self._cost(1)
        piped = self._cost(4)
        assert piped.is_pipelined
        assert piped.total < serial.total
        assert piped.pipeline_chunks == 4

    def test_makespan_formula(self):
        # Uniform per-chunk stage times: makespan = sum of stage times plus
        # (C - 1) repeats of the slowest stage.
        chunks = 4
        piped = self._cost(chunks)
        stage_seconds = sorted(
            {(p.name, p.seconds) for p in piped.phases}, key=lambda item: item[0]
        )
        per_chunk = [seconds for _, seconds in stage_seconds]
        expected = sum(per_chunk) + (chunks - 1) * max(per_chunk)
        assert piped.total == pytest.approx(expected)

    def test_phase_sum_invariant_per_chunk(self):
        chunks = 4
        piped = self._cost(chunks)
        by_chunk: dict[int, float] = {}
        for phase in piped.phases:
            by_chunk[phase.chunk] = by_chunk.get(phase.chunk, 0.0) + phase.seconds
        assert set(by_chunk) == set(range(chunks))
        sums = list(by_chunk.values())
        assert all(s == pytest.approx(sums[0]) for s in sums)
        # The makespan sits between one chunk's serial traversal and C of them.
        assert sums[0] <= piped.total <= chunks * sums[0] + 1e-12

    def test_same_link_phases_never_overlap(self):
        piped = self._cost(6)
        by_link: dict[str, list[tuple[float, float]]] = {}
        for phase in piped.phases:
            by_link.setdefault(phase.link, []).append((phase.start, phase.start + phase.seconds))
        for spans in by_link.values():
            spans.sort()
            for (_, a_end), (b_start, _) in zip(spans, spans[1:]):
                assert b_start >= a_end - 1e-12

    def test_volume_preserved_across_chunks(self):
        serial = self._cost(1)
        piped = self._cost(4)
        assert piped.volume_bytes == pytest.approx(serial.volume_bytes)

    def test_latency_bound_payload_falls_back_to_serial(self):
        serial = self._cost(1, payload=8.0)
        piped = self._cost(16, payload=8.0)
        assert not piped.is_pipelined
        assert piped.total == serial.total
        # The cost reports what was actually priced: serial, 1-chunk.
        assert piped.pipeline_chunks == 1

    def test_single_link_algorithm_reports_serial_chunks(self):
        cost = get_collective_algorithm("flat-allgather").cost(
            two_level(4, 8), "allgather", 4e6, pipeline_chunks=8
        )
        assert cost.pipeline_chunks == 1

    def test_pipelined_allreduce(self):
        topo = two_level(4, 8)
        serial = get_collective_algorithm("hierarchical").cost(topo, "allreduce", 64e6)
        piped = get_collective_algorithm("hierarchical").cost(
            topo, "allreduce", 64e6, pipeline_chunks=4
        )
        assert piped.total <= serial.total

    def test_invalid_pipeline_chunks_rejected(self):
        with pytest.raises(ValueError, match="pipeline_chunks"):
            self._cost(0)
        with pytest.raises(ValueError, match="pipeline_chunks"):
            validate_pipeline_chunks(2.5)
        with pytest.raises(ValueError, match="pipeline_chunks"):
            CollectiveModel(two_level(4, 8), pipeline_chunks=0)

    def test_collective_model_threads_both_knobs(self):
        topo = two_level(4, 8)
        model = CollectiveModel(
            topo,
            allgather_algorithm="hierarchical",
            pipeline_chunks=4,
            allgather_dedup=SparseAggregateModel("uniform"),
        )
        direct = get_collective_algorithm("hierarchical").cost(
            topo, "allgather", 4e6, density=0.1,
            dedup=SparseAggregateModel("uniform"), pipeline_chunks=4,
        )
        cost = model.allgather_cost(4e6, density=0.1)
        assert cost.total == direct.total
        assert cost.dedup_ratio == direct.dedup_ratio
        # Without a density the dedup model stays silent but pipelining holds.
        assert model.allgather_cost(4e6).dedup_ratio == 1.0
