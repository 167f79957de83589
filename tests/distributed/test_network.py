"""Tests for the network model."""

import pytest

from repro.distributed import CLUSTER_ETHERNET_10G, NODE_INFINIBAND_100G, NetworkModel, get_network


class TestNetworkModel:
    def test_efficiency_reduces_effective_bandwidth(self):
        fast = NetworkModel(bandwidth_gbps=10.0, efficiency=1.0)
        slow = NetworkModel(bandwidth_gbps=10.0, efficiency=0.5)
        assert slow.allreduce_time(1e8, 8) > fast.allreduce_time(1e8, 8)

    def test_allreduce_single_worker_is_free(self):
        assert NetworkModel().allreduce_time(1e9, 1) == 0.0
        assert NetworkModel().allgather_time(1e6, 1) == 0.0

    def test_allreduce_scales_with_workers_and_bytes(self):
        net = NetworkModel(bandwidth_gbps=10.0, latency_s=0.0, efficiency=1.0)
        t4 = net.allreduce_time(1e9, 4)
        t8 = net.allreduce_time(1e9, 8)
        # Ring all-reduce volume factor 2(N-1)/N grows slowly with N.
        assert t8 > t4
        assert net.allreduce_time(2e9, 8) == pytest.approx(2 * t8)

    def test_allgather_scales_linearly_with_workers(self):
        net = NetworkModel(bandwidth_gbps=10.0, latency_s=0.0, efficiency=1.0)
        assert net.allgather_time(1e6, 9) == pytest.approx(2 * net.allgather_time(1e6, 5))

    def test_sparse_allgather_cheaper_than_dense_allreduce_when_sparse_enough(self):
        net = CLUSTER_ETHERNET_10G
        dense_bytes = 4 * 25_000_000
        sparse_bytes = 8 * 25_000  # 0.1% ratio, values + indices
        assert net.allgather_time(sparse_bytes, 8) < net.allreduce_time(dense_bytes, 8)

    @pytest.mark.parametrize("kwargs", [{"bandwidth_gbps": 0.0}, {"latency_s": -1.0}, {"efficiency": 0.0}, {"efficiency": 1.5}])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            NetworkModel(**kwargs)

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            NetworkModel().allreduce_time(100, 0)


class TestPresets:
    def test_lookup_by_alias_and_name(self):
        assert get_network("10g") is CLUSTER_ETHERNET_10G
        assert get_network("infiniband-100g") is NODE_INFINIBAND_100G

    @pytest.mark.parametrize("full_name", ["ethernet-10g", "ethernet-25g", "infiniband-100g"])
    def test_every_preset_resolvable_by_full_name(self, full_name):
        model = get_network(full_name)
        assert model.name == full_name
        assert model is get_network(full_name.upper())  # lookup is case-insensitive

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            get_network("56g")

    def test_unknown_error_lists_short_keys_and_full_names(self):
        # Full names are accepted, so the error must advertise them alongside
        # the short keys.
        with pytest.raises(ValueError) as excinfo:
            get_network("56g")
        message = str(excinfo.value)
        for key in ("10g", "25g", "100g"):
            assert key in message
        for full_name in ("ethernet-10g", "ethernet-25g", "infiniband-100g"):
            assert full_name in message

    def test_infiniband_faster_than_ethernet(self):
        assert NODE_INFINIBAND_100G.allreduce_time(1e9, 8) < CLUSTER_ETHERNET_10G.allreduce_time(1e9, 8)
