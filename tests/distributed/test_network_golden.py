"""Golden regression pins for the flat network closed forms.

The topology-aware collective layer refactored ``NetworkModel.allreduce_time``
and ``allgather_time`` into the degenerate single-level case of
:mod:`repro.distributed.topology`.  These tests pin the closed forms at
hard-coded values (10g/25g/100g presets, several payload sizes and worker
counts) *and* assert bit-exact equality with the collective layer's flat
model, so the refactor provably reproduces the pre-topology behaviour.

The dedup/pipelining layer added on top must be inert at its defaults:
``pipeline_chunks=1`` with no dedup model reproduces every PR-3
``CollectiveCost`` — phase names, per-phase seconds, volumes and totals —
bit-for-bit.  The hierarchical table below was captured from the PR-3 code
before the knobs existed; any drift is a behaviour change.  A second table
pins the paths the first does not reach, phase by phase: recursive doubling,
multi-level hierarchical all-reduce, deduplicated multi-level all-gather and
chunk-pipelined hierarchical all-gather.
"""

import pytest

from repro.distributed import CollectiveModel, SparseAggregateModel, get_network, get_topology

#: (network, num_workers, num_bytes, allreduce_seconds, allgather_seconds)
#: computed from the seed closed forms; any drift here is a behaviour change.
GOLDEN_TIMES = [
    ("10g", 2, 4096.0, 0.00010936228571428571, 5.936228571428572e-05),
    ("10g", 2, 4000000.0, 0.009242857142857143, 0.009192857142857143),
    ("10g", 2, 100000000.0, 0.22867142857142855, 0.22862142857142856),
    ("10g", 4, 4096.0, 0.0003140434285714286, 0.00017808685714285717),
    ("10g", 4, 4000000.0, 0.014014285714285715, 0.02757857142857143),
    ("10g", 4, 100000000.0, 0.3431571428571428, 0.6858642857142857),
    ("10g", 8, 4096.0, 0.000716384, 0.00041553600000000004),
    ("10g", 8, 4000000.0, 0.0167, 0.06435),
    ("10g", 8, 100000000.0, 0.4007, 1.60035),
    ("10g", 16, 4096.0, 0.0015175542857142857, 0.0008904342857142857),
    ("10g", 16, 4000000.0, 0.018642857142857145, 0.13789285714285715),
    ("10g", 16, 100000000.0, 0.43007142857142855, 3.4293214285714284),
    ("25g", 2, 4096.0, 6.374491428571428e-05, 3.3744914285714284e-05),
    ("25g", 2, 4000000.0, 0.0037171428571428572, 0.003687142857142857),
    ("25g", 2, 100000000.0, 0.09148857142857143, 0.09145857142857143),
    ("25g", 4, 4096.0, 0.00018561737142857145, 0.00010123474285714285),
    ("25g", 4, 4000000.0, 0.005665714285714285, 0.011061428571428571),
    ("25g", 4, 100000000.0, 0.13732285714285714, 0.2743757142857143),
    ("25g", 8, 4096.0, 0.00042655359999999997, 0.00023621439999999997),
    ("25g", 8, 4000000.0, 0.0068200000000000005, 0.02581),
    ("25g", 8, 100000000.0, 0.16042, 0.6402100000000001),
    ("25g", 16, 4096.0, 0.0009070217142857143, 0.0005061737142857143),
    ("25g", 16, 4000000.0, 0.007757142857142857, 0.05530714285714286),
    ("25g", 16, 100000000.0, 0.17232857142857141, 1.3718785714285715),
    ("100g", 2, 4096.0, 1.0546133333333334e-05, 5.5461333333333336e-06),
    ("100g", 2, 4000000.0, 0.0005433333333333334, 0.0005383333333333334),
    ("100g", 2, 100000000.0, 0.013343333333333334, 0.013338333333333334),
    ("100g", 4, 4096.0, 3.0819200000000005e-05, 1.66384e-05),
    ("100g", 4, 4000000.0, 0.0008300000000000001, 0.0016150000000000001),
    ("100g", 4, 100000000.0, 0.02003, 0.040015),
    ("100g", 8, 4096.0, 7.095573333333334e-05, 3.882293333333334e-05),
    ("100g", 8, 4000000.0, 0.0010033333333333333, 0.0037683333333333336),
    ("100g", 8, 100000000.0, 0.023403333333333335, 0.09336833333333333),
    ("100g", 16, 4096.0, 0.000151024, 8.3192e-05),
    ("100g", 16, 4000000.0, 0.00115, 0.008075),
    ("100g", 16, 100000000.0, 0.025150000000000002, 0.200075),
]


@pytest.mark.parametrize(
    "network,num_workers,num_bytes,allreduce_s,allgather_s",
    GOLDEN_TIMES,
    ids=[f"{n}-w{w}-{int(b)}B" for n, w, b, _, _ in GOLDEN_TIMES],
)
class TestGoldenClosedForms:
    def test_allreduce_pinned(self, network, num_workers, num_bytes, allreduce_s, allgather_s):
        assert get_network(network).allreduce_time(num_bytes, num_workers) == allreduce_s

    def test_allgather_pinned(self, network, num_workers, num_bytes, allreduce_s, allgather_s):
        assert get_network(network).allgather_time(num_bytes, num_workers) == allgather_s

    def test_flat_collective_is_the_degenerate_case(
        self, network, num_workers, num_bytes, allreduce_s, allgather_s
    ):
        # Bit-exact, not approx: the single-level collective model must be a
        # drop-in replacement for the old closed forms.
        model = CollectiveModel.flat(get_network(network), num_workers)
        assert model.allreduce_time(num_bytes) == allreduce_s
        assert model.allgather_time(num_bytes) == allgather_s

    def test_explicit_knobs_off_keeps_the_closed_forms(
        self, network, num_workers, num_bytes, allreduce_s, allgather_s
    ):
        # Spelling the default knobs out (serial phases, no dedup model) must
        # not perturb a single bit of the closed forms either.
        model = CollectiveModel.flat(
            get_network(network), num_workers, pipeline_chunks=1, allgather_dedup=None
        )
        assert model.allreduce_time(num_bytes) == allreduce_s
        assert model.allgather_time(num_bytes) == allgather_s


#: (preset, payload_bytes, [(phase, link, seconds, volume_bytes)...],
#:  hierarchical_allgather_total, flat_allgather_total, ring_allreduce_total)
#: captured from the PR-3 code (commit 534f47a) before the dedup/pipelining
#: knobs existed; the knobs-off model must reproduce every float bit-for-bit.
HIERARCHICAL_GOLDEN = [
    ("ethernet-4x8", 4096.0,
     [("intra-gather", "infiniband-100g", 3.882293333333334e-05, 28672.0),
      ("inter-allgather", "ethernet-10g", 0.0003746948571428572, 98304.0),
      ("intra-broadcast", "infiniband-100g", 2.1930133333333332e-05, 126976.0)],
     0.0004354479238095239, 0.0018402308571428573, 0.0031181394285714286),
    ("ethernet-4x8", 200000.0,
     [("intra-gather", "infiniband-100g", 0.00022166666666666667, 1400000.0),
      ("inter-allgather", "ethernet-10g", 0.011121428571428572, 4800000.0),
      ("intra-broadcast", "infiniband-100g", 0.0008316666666666666, 6200000.0)],
     0.012174761904761905, 0.01572142857142857, 0.003985714285714286),
    ("ethernet-4x8", 2000000.0,
     [("intra-gather", "infiniband-100g", 0.001901666666666667, 14000000.0),
      ("inter-allgather", "ethernet-10g", 0.10986428571428572, 48000000.0),
      ("intra-broadcast", "infiniband-100g", 0.008271666666666667, 62000000.0)],
     0.12003761904761905, 0.1432642857142857, 0.011957142857142857),
    ("ethernet-4x8", 20000000.0,
     [("intra-gather", "infiniband-100g", 0.018701666666666665, 140000000.0),
      ("inter-allgather", "ethernet-10g", 1.097292857142857, 480000000.0),
      ("intra-broadcast", "infiniband-100g", 0.08267166666666667, 620000000.0)],
     1.1986661904761904, 1.4186928571428572, 0.09167142857142857),
    ("cluster1", 4096.0,
     [("inter-allgather", "ethernet-10g", 0.00041553600000000004, 28672.0)],
     0.00041553600000000004, 0.00041553600000000004, 0.000716384),
    ("cluster1", 2000000.0,
     [("inter-allgather", "ethernet-10g", 0.032350000000000004, 14000000.0)],
     0.032350000000000004, 0.032350000000000004, 0.008700000000000001),
    ("cluster1", 20000000.0,
     [("inter-allgather", "ethernet-10g", 0.32035, 140000000.0)],
     0.32035, 0.32035, 0.0807),
    ("cluster2", 4096.0,
     [("intra-gather", "infiniband-100g", 3.882293333333334e-05, 28672.0),
      ("intra-broadcast", "infiniband-100g", 8.822933333333333e-06, 28672.0)],
     4.764586666666667e-05, 3.882293333333334e-05, 7.095573333333334e-05),
    ("cluster2", 2000000.0,
     [("intra-gather", "infiniband-100g", 0.001901666666666667, 14000000.0),
      ("intra-broadcast", "infiniband-100g", 0.0018716666666666667, 14000000.0)],
     0.0037733333333333334, 0.001901666666666667, 0.0005366666666666666),
    ("cluster2", 20000000.0,
     [("intra-gather", "infiniband-100g", 0.018701666666666665, 140000000.0),
      ("intra-broadcast", "infiniband-100g", 0.01867166666666667, 140000000.0)],
     0.037373333333333335, 0.018701666666666665, 0.004736666666666667),
]


@pytest.mark.parametrize(
    "preset,num_bytes,phases,hier_total,flat_total,allreduce_total",
    HIERARCHICAL_GOLDEN,
    ids=[f"{p}-{int(b)}B" for p, b, *_ in HIERARCHICAL_GOLDEN],
)
class TestHierarchicalGoldenPins:
    """PR-3 hierarchical CollectiveCost, reproduced bit-for-bit with knobs off."""

    def _model(self, preset, **kwargs):
        return CollectiveModel(
            get_topology(preset),
            allgather_algorithm="hierarchical",
            allreduce_algorithm="ring-allreduce",
            **kwargs,
        )

    def test_default_model_matches_pr3(
        self, preset, num_bytes, phases, hier_total, flat_total, allreduce_total
    ):
        cost = self._model(preset).allgather_cost(num_bytes)
        assert cost.total == hier_total
        assert [
            (p.name, p.link, p.seconds, p.volume_bytes) for p in cost.phases
        ] == phases
        assert all(p.start is None and p.chunk is None for p in cost.phases)
        assert self._model(preset).allreduce_cost(num_bytes).total == allreduce_total

    def test_knobs_off_matches_pr3(
        self, preset, num_bytes, phases, hier_total, flat_total, allreduce_total
    ):
        model = self._model(preset, pipeline_chunks=1, allgather_dedup=None)
        cost = model.allgather_cost(num_bytes)
        assert cost.total == hier_total
        assert [
            (p.name, p.link, p.seconds, p.volume_bytes) for p in cost.phases
        ] == phases
        assert model.allreduce_cost(num_bytes).total == allreduce_total

    def test_flat_allgather_pinned(
        self, preset, num_bytes, phases, hier_total, flat_total, allreduce_total
    ):
        model = CollectiveModel(get_topology(preset), pipeline_chunks=1)
        assert model.allgather_cost(num_bytes).total == flat_total


@pytest.mark.parametrize("network", ["10g", "25g", "100g"])
def test_single_worker_collectives_are_free(network):
    net = get_network(network)
    assert net.allreduce_time(1e9, 1) == 0.0
    assert net.allgather_time(1e9, 1) == 0.0
    model = CollectiveModel.flat(net, 1)
    assert model.allreduce_time(1e9) == 0.0
    assert model.allgather_time(1e9) == 0.0
    assert model.allreduce_cost(1e9).phases == ()


#: (algorithm, op, preset, pipeline_chunks, dedup assumption, density,
#:  payload_bytes, [(phase, link, seconds, volume_bytes, start, chunk)...],
#:  total, dedup_ratio, priced pipeline_chunks) for the algorithm paths the
#: PR-3 table above does not reach: recursive doubling, multi-level
#: hierarchical all-reduce, deduplicated multi-level all-gather and
#: chunk-pipelined hierarchical all-gather (one payload that pipelines, one
#: latency-bound payload that falls back to the serial phases).
ALGORITHM_GOLDEN = [
    ('recursive-doubling', 'allgather', 'ethernet-4x8', 1, None, None, 4096.0,
     [('round-0', 'ethernet-10g', 5.936228571428572e-05, 4096.0, None, None),
      ('round-1', 'ethernet-10g', 6.872457142857143e-05, 8192.0, None, None),
      ('round-2', 'ethernet-10g', 8.744914285714286e-05, 16384.0, None, None),
      ('round-3', 'ethernet-10g', 0.00012489828571428572, 32768.0, None, None),
      ('round-4', 'ethernet-10g', 0.00019979657142857142, 65536.0, None, None)],
     0.0005402308571428572, 1.0, 1),
    ('recursive-doubling', 'allgather', 'ethernet-4x8', 1, None, None, 2000000.0,
     [('round-0', 'ethernet-10g', 0.0046214285714285715, 2000000.0, None, None),
      ('round-1', 'ethernet-10g', 0.009192857142857143, 4000000.0, None, None),
      ('round-2', 'ethernet-10g', 0.01833571428571429, 8000000.0, None, None),
      ('round-3', 'ethernet-10g', 0.036621428571428576, 16000000.0, None, None),
      ('round-4', 'ethernet-10g', 0.07319285714285714, 32000000.0, None, None)],
     0.1419642857142857, 1.0, 1),
    ('recursive-doubling', 'allreduce', 'ethernet-4x8', 1, None, None, 4096.0,
     [('round-0', 'ethernet-10g', 5.936228571428572e-05, 4096.0, None, None),
      ('round-1', 'ethernet-10g', 5.936228571428572e-05, 4096.0, None, None),
      ('round-2', 'ethernet-10g', 5.936228571428572e-05, 4096.0, None, None),
      ('round-3', 'ethernet-10g', 5.936228571428572e-05, 4096.0, None, None),
      ('round-4', 'ethernet-10g', 5.936228571428572e-05, 4096.0, None, None)],
     0.0002968114285714286, 1.0, 1),
    ('recursive-doubling', 'allreduce', 'ethernet-4x8', 1, None, None, 2000000.0,
     [('round-0', 'ethernet-10g', 0.0046214285714285715, 2000000.0, None, None),
      ('round-1', 'ethernet-10g', 0.0046214285714285715, 2000000.0, None, None),
      ('round-2', 'ethernet-10g', 0.0046214285714285715, 2000000.0, None, None),
      ('round-3', 'ethernet-10g', 0.0046214285714285715, 2000000.0, None, None),
      ('round-4', 'ethernet-10g', 0.0046214285714285715, 2000000.0, None, None)],
     0.023107142857142857, 1.0, 1),
    ('hierarchical', 'allreduce', 'fat-tree-128', 1, None, None, 4096.0,
     [('node-reduce', 'infiniband-100g', 1.66384e-05, 12288.0, None, None),
      ('rack-reduce', 'ethernet-25g', 0.00010123474285714285, 12288.0, None, None),
      ('pod-reduce', 'ethernet-25g/os2', 7.497965714285714e-05, 8192.0, None, None),
      ('core-allreduce', 'ethernet-10g/os4', 0.00035617371428571434, 6144.0, None, None),
      ('pod-broadcast', 'ethernet-25g/os2', 7.497965714285714e-05, 8192.0, None, None),
      ('rack-broadcast', 'ethernet-25g', 0.00010123474285714285, 12288.0, None, None),
      ('node-broadcast', 'infiniband-100g', 1.66384e-05, 12288.0, None, None)],
     0.0007418793142857142, 1.0, 1),
    ('hierarchical', 'allreduce', 'fat-tree-128', 1, None, None, 2000000.0,
     [('node-reduce', 'infiniband-100g', 0.0008150000000000001, 6000000.0, None, None),
      ('rack-reduce', 'ethernet-25g', 0.005575714285714286, 6000000.0, None, None),
      ('pod-reduce', 'ethernet-25g/os2', 0.007374285714285714, 4000000.0, None, None),
      ('core-allreduce', 'ethernet-10g/os4', 0.02772857142857143, 3000000.0, None, None),
      ('pod-broadcast', 'ethernet-25g/os2', 0.007374285714285714, 4000000.0, None, None),
      ('rack-broadcast', 'ethernet-25g', 0.005575714285714286, 6000000.0, None, None),
      ('node-broadcast', 'infiniband-100g', 0.0008150000000000001, 6000000.0, None, None)],
     0.055258571428571435, 1.0, 1),
    ('hierarchical', 'allgather', 'fat-tree-128', 1, 'uniform', 0.01, 4096.0,
     [('node-gather', 'infiniband-100g', 3.882293333333334e-05, 28672.0, None, None),
      ('rack-gather', 'ethernet-25g', 0.00041252014823887326, 221506.41213626758, None, None),
      ('pod-gather', 'ethernet-25g/os2', 0.001155960294635135, 582947.0361285894, None, None),
      ('core-allgather', 'ethernet-10g/os4', 0.010527363636805282, 1135024.1477755776, None, None),
      ('pod-broadcast', 'ethernet-25g/os2', 0.000771467624042546, 405490.10689826735, None, None),
      ('rack-broadcast', 'ethernet-25g', 0.00040073381202127304, 405490.10689826735, None, None),
      ('node-broadcast', 'infiniband-100g', 5.9065347586435645e-05, 405490.10689826735, None, None)],
     0.01336593379666288, 2.771507554411951, 1),
    ('hierarchical', 'allgather', 'fat-tree-128', 1, 'uniform', 0.01, 2000000.0,
     [('node-gather', 'infiniband-100g', 0.001901666666666667, 14000000.0, None, None),
      ('rack-gather', 'ethernet-25g', 0.09909679113226233, 108157427.8009119, None, None),
      ('pod-gather', 'ethernet-25g/os2', 0.520578425114812, 284642107.48466283, None, None),
      ('core-allgather', 'ethernet-10g/os4', 5.067222088283829, 554211009.6560438, None, None),
      ('pod-broadcast', 'ethernet-25g/os2', 0.36207473830202436, 197993216.2589196, None, None),
      ('rack-broadcast', 'ethernet-25g', 0.1810523691510122, 197993216.2589196, None, None),
      ('node-broadcast', 'infiniband-100g', 0.02640409550118928, 197993216.2589196, None, None)],
     6.258330174151797, 2.771507554411951, 1),
    ('hierarchical', 'allgather', 'dragonfly-64', 1, 'uniform', 0.01, 4096.0,
     [('node-gather', 'infiniband-100g', 1.66384e-05, 12288.0, None, None),
      ('group-gather', 'ethernet-25g', 0.00031329519554560017, 112979.12012800016, None, None),
      ('global-allgather', 'ethernet-10g/os2', 0.003954737740533224, 788536.3807416427, None, None),
      ('group-broadcast', 'ethernet-25g', 0.0003721672069411284, 374245.3825918592, None, None),
      ('node-broadcast', 'infiniband-100g', 5.4899384345581224e-05, 374245.3825918592, None, None)],
     0.004711737927365534, 1.1635531630602247, 1),
    ('hierarchical', 'allgather', 'dragonfly-64', 1, 'uniform', 0.01, 2000000.0,
     [('node-gather', 'infiniband-100g', 0.0008150000000000001, 6000000.0, None, None),
      ('group-gather', 'ethernet-25g', 0.05064710720000007, 55165586.000000075, None, None),
      ('global-allgather', 'ethernet-10g/os2', 1.7604758498697382, 385027529.6590052, None, None),
      ('group-broadcast', 'ethernet-25g', 0.16710383151422287, 182737003.21868125, None, None),
      ('node-broadcast', 'infiniband-100g', 0.024369933762490834, 182737003.21868125, None, None)],
     2.003411722346452, 1.1635531630602247, 1),
    ('hierarchical', 'allgather', 'ethernet-4x8', 4, None, None, 4096.0,
     [('intra-gather', 'infiniband-100g', 3.882293333333334e-05, 28672.0, None, None),
      ('inter-allgather', 'ethernet-10g', 0.0003746948571428572, 98304.0, None, None),
      ('intra-broadcast', 'infiniband-100g', 2.1930133333333332e-05, 126976.0, None, None)],
     0.0004354479238095239, 1.0, 1),
    ('hierarchical', 'allgather', 'ethernet-4x8', 4, None, None, 2000000.0,
     [('intra-gather', 'infiniband-100g', 0.0005016666666666666, 3500000.0, 0.0, 0),
      ('inter-allgather', 'ethernet-10g', 0.02757857142857143, 12000000.0, 0.0005016666666666666, 0),
      ('intra-broadcast', 'infiniband-100g', 0.0020716666666666665, 15500000.0, 0.0280802380952381, 0),
      ('intra-gather', 'infiniband-100g', 0.0005016666666666666, 3500000.0, 0.0005016666666666666, 1),
      ('inter-allgather', 'ethernet-10g', 0.02757857142857143, 12000000.0, 0.0280802380952381, 1),
      ('intra-broadcast', 'infiniband-100g', 0.0020716666666666665, 15500000.0, 0.05565880952380953, 1),
      ('intra-gather', 'infiniband-100g', 0.0005016666666666666, 3500000.0, 0.0010033333333333333, 2),
      ('inter-allgather', 'ethernet-10g', 0.02757857142857143, 12000000.0, 0.05565880952380953, 2),
      ('intra-broadcast', 'infiniband-100g', 0.0020716666666666665, 15500000.0, 0.08323738095238095, 2),
      ('intra-gather', 'infiniband-100g', 0.0005016666666666666, 3500000.0, 0.0015049999999999998, 3),
      ('inter-allgather', 'ethernet-10g', 0.02757857142857143, 12000000.0, 0.08323738095238095, 3),
      ('intra-broadcast', 'infiniband-100g', 0.0020716666666666665, 15500000.0, 0.11081595238095238, 3)],
     0.11288761904761904, 1.0, 4),
]


@pytest.mark.parametrize(
    "algorithm,op,preset,chunks,dedup,density,num_bytes,phases,total,dedup_ratio,priced_chunks",
    ALGORITHM_GOLDEN,
    ids=[f"{a}-{o}-{p}-c{c}-{int(b)}B" for a, o, p, c, _, _, b, *_ in ALGORITHM_GOLDEN],
)
def test_algorithm_costs_pinned(
    algorithm, op, preset, chunks, dedup, density, num_bytes, phases, total, dedup_ratio,
    priced_chunks,
):
    model = CollectiveModel(
        get_topology(preset),
        allreduce_algorithm=algorithm if op == "allreduce" else "ring-allreduce",
        allgather_algorithm=algorithm if op == "allgather" else "flat-allgather",
        pipeline_chunks=chunks,
        allgather_dedup=None if dedup is None else SparseAggregateModel(dedup),
    )
    if op == "allreduce":
        cost = model.allreduce_cost(num_bytes)
    else:
        cost = model.allgather_cost(num_bytes, density=density)
    assert [
        (p.name, p.link, p.seconds, p.volume_bytes, p.start, p.chunk) for p in cost.phases
    ] == phases
    assert cost.total == total
    assert cost.dedup_ratio == dedup_ratio
    assert cost.pipeline_chunks == priced_chunks
