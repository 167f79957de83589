"""Analytic network model for gradient aggregation time.

The paper's clusters use 10/25 Gbps Ethernet between single-GPU servers and a
100 Gbps InfiniBand fabric inside the 8-GPU node (Appendix D).  Aggregation is
peer-to-peer via collective operations: dense gradients use ring all-reduce,
sparse (index, value) payloads use all-gather because workers select different
indices.  The model prices both from link bandwidth, per-message latency, and
the number of workers — which is exactly the trade-off (volume saved vs
compression overhead paid) that determines the speed-up figures.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class NetworkModel:
    """Bandwidth/latency model of the interconnect between workers.

    ``efficiency`` is the fraction of line rate the collective actually
    achieves.  Framework collectives over TCP (Horovod all-reduce/all-gather
    of large float buffers) typically sustain 30-50% of the link bandwidth,
    and that inefficiency is part of why the paper's communication overheads
    are as large as Table 1 reports; modelling it keeps the compute /
    communication balance realistic.
    """

    bandwidth_gbps: float = 10.0
    latency_s: float = 50e-6
    name: str = "ethernet-10g"
    efficiency: float = 1.0

    def __post_init__(self) -> None:
        if self.bandwidth_gbps <= 0.0:
            raise ValueError("bandwidth_gbps must be positive")
        if self.latency_s < 0.0:
            raise ValueError("latency_s must be non-negative")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")

    @property
    def bytes_per_second(self) -> float:
        return self.bandwidth_gbps * 1e9 / 8.0 * self.efficiency

    def allreduce_time(self, num_bytes: float, num_workers: int) -> float:
        """Ring all-reduce of a dense buffer of ``num_bytes`` across ``num_workers``."""
        self._check_workers(num_workers)
        if num_workers == 1:
            return 0.0
        steps = 2 * (num_workers - 1)
        chunk = num_bytes / num_workers
        return steps * (self.latency_s + chunk / self.bytes_per_second)

    def allgather_time(self, payload_bytes_per_worker: float, num_workers: int) -> float:
        """Ring all-gather where each worker contributes ``payload_bytes_per_worker``."""
        self._check_workers(num_workers)
        if num_workers == 1:
            return 0.0
        steps = num_workers - 1
        return steps * (self.latency_s + payload_bytes_per_worker / self.bytes_per_second)

    @staticmethod
    def _check_workers(num_workers: int) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")


#: The dedicated 8-server cluster of Appendix D (Cluster 1): 10/25 Gbps Ethernet,
#: with the ~35% effective collective efficiency typical of TCP-based Horovod.
CLUSTER_ETHERNET_10G = NetworkModel(bandwidth_gbps=10.0, latency_s=50e-6, name="ethernet-10g", efficiency=0.35)
CLUSTER_ETHERNET_25G = NetworkModel(bandwidth_gbps=25.0, latency_s=30e-6, name="ethernet-25g", efficiency=0.35)

#: The shared multi-GPU node of Appendix D (Cluster 2): 100 Gbps InfiniBand / NVLink-ish.
NODE_INFINIBAND_100G = NetworkModel(bandwidth_gbps=100.0, latency_s=5e-6, name="infiniband-100g", efficiency=0.6)

NETWORKS: dict[str, NetworkModel] = {
    "10g": CLUSTER_ETHERNET_10G,
    "25g": CLUSTER_ETHERNET_25G,
    "100g": NODE_INFINIBAND_100G,
}


def lookup_preset(registry: dict, name: str, kind: str):
    """Resolve a preset by short key or full ``.name``; the error lists both forms."""
    key = name.lower()
    if key in registry:
        return registry[key]
    for model in registry.values():
        if model.name == key:
            return model
    full_names = sorted(model.name for model in registry.values())
    raise ValueError(
        f"unknown {kind} {name!r}; known: {sorted(registry)} (full names: {full_names})"
    )


def get_network(name: str) -> NetworkModel:
    """Look up a predefined network model (``10g``, ``25g``, ``100g``) or by full name."""
    return lookup_preset(NETWORKS, name, "network")
