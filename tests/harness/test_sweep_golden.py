"""Golden matrix: SweepResult metrics pinned across every topology preset.

One small fixed workload swept over all 7 topology presets x overlap x
cross-bucket pipelining, with every metric pinned to the exact floats the
engine produced when the matrix was captured.  Any change to compression,
collective pricing, or the schedule simulator that moves a number — however
slightly — fails here first, with the exact (topology, overlap, lanes) cell
that moved.

Captured with: bucket_bytes=512 KiB (so the 4096-element proxy splits into
several buckets and the overlap/lane knobs actually bite) and the
hierarchical all-gather (so multi-level presets exercise per-link lanes).
Exact ``==`` on purpose, same discipline as ``test_network_golden``: these
are deterministic closed-form/event-driven computations, not measurements.
"""

import pytest

from repro.distributed import TOPOLOGIES
from repro.harness import SweepSpec, WorkloadSpec, run_sweep
from tests.harness.priced_alone import priced_alone

WORKLOAD = WorkloadSpec(
    name="golden", dimension=1_000_000, comm_overhead=0.7, proxy_elements=4096, seed=7
)

AXES = {
    "topology": tuple(TOPOLOGIES),
    "overlap": ("none", "comm+compress"),
    "cross_bucket_pipeline": (False, True),
    "bucket_bytes": (2**19,),
    "allgather_algorithm": ("hierarchical",),
}

#: (topology, overlap, cross_bucket) -> (iteration_seconds,
#: communication_seconds, speedup_vs_dense), captured at PR 9.
GOLDEN = {
    ("cluster1", "none", False): (0.027352142857142856, 0.015674999999999998, 0.8722220771420365),
    ("cluster1", "none", True): (0.027352142857142856, 0.015674999999999998, 0.8722220771420365),
    ("cluster1-25g", "none", False): (0.014272857142857146, 0.006830000000000002, 0.6826143529176257),
    ("cluster1-25g", "none", True): (0.014272857142857146, 0.006830000000000002, 0.6826143529176257),
    ("cluster2", "none", False): (0.013499226190476192, 0.0018220833333333335, 0.6045143681075195),
    ("cluster2", "none", True): (0.013499226190476192, 0.0018220833333333335, 0.6045143681075195),
    ("ethernet-4x8", "none", False): (0.06318034863945578, 0.049739940476190465, 0.4706320005803493),
    ("ethernet-4x8", "none", True): (0.06318034863945578, 0.049739940476190465, 0.4706320005803493),
    ("torus-2d", "none", False): (0.04998408163265307, 0.03747428571428572, 0.5328226945721496),
    ("torus-2d", "none", True): (0.04998408163265307, 0.03747428571428572, 0.5328226945721496),
    ("fat-tree-128", "none", False): (8.426496743197276, 8.346817559523807, 0.02973128927476911),
    ("fat-tree-128", "none", True): (8.426496743197276, 8.346817559523807, 0.02973128927476911),
    ("dragonfly-64", "none", False): (1.0958292091836732, 1.0647683928571425, 0.08073282498192069),
    ("dragonfly-64", "none", True): (1.0958292091836732, 1.0647683928571425, 0.08073282498192069),
    ("cluster1", "comm+compress", False): (0.016655697544642856, 0.015674999999999998, 1.4323712827516057),
    ("cluster1", "comm+compress", True): (0.016655697544642856, 0.015674999999999998, 1.4323712827516057),
    ("cluster1-25g", "comm+compress", False): (0.0074550837053571455, 0.006830000000000002, 1.3068742790716124),
    ("cluster1-25g", "comm+compress", True): (0.0074550837053571455, 0.006830000000000002, 1.3068742790716124),
    ("cluster2", "comm+compress", False): (0.007985502232142857, 0.0018220833333333335, 1.0219114531868814),
    ("cluster2", "comm+compress", True): (0.007985502232142857, 0.0018220833333333335, 1.0219114531868814),
    ("ethernet-4x8", "comm+compress", False): (0.0508687247555272, 0.049739940476190465, 0.5845378279179324),
    ("ethernet-4x8", "comm+compress", True): (0.04700955808886055, 0.049739940476190465, 0.6325244287841327),
    ("torus-2d", "comm+compress", False): (0.03852491310586735, 0.03747428571428572, 0.691309880129706),
    ("torus-2d", "comm+compress", True): (0.02607062739158163, 0.03747428571428572, 1.0215578114481567),
    ("fat-tree-128", "comm+compress", False): (8.353509365965134, 8.346817559523807, 0.029991061393387523),
    ("fat-tree-128", "comm+compress", True): (5.995679008822279, 8.346817559523807, 0.04178519428345937),
    ("dragonfly-64", "comm+compress", False): (1.067377016103316, 1.0647683928571425, 0.08288485363688843),
    ("dragonfly-64", "comm+compress", True): (0.8595704089604592, 1.0647683928571425, 0.10292279356393211),
}


@pytest.fixture(scope="module")
def result():
    with priced_alone():
        return run_sweep(SweepSpec(workloads=(WORKLOAD,), axes=AXES))


def test_matrix_covers_every_preset_and_knob_cell(result):
    cells = {
        (r.config["topology"], r.config["overlap"], r.config["cross_bucket_pipeline"])
        for r in result.records
    }
    assert cells == set(GOLDEN)
    assert {r.config["topology"] for r in result.records} == set(TOPOLOGIES)
    assert len(result.records) == len(GOLDEN) == 28


def test_every_cell_matches_golden_exactly(result):
    for record in result.records:
        cell = (
            record.config["topology"],
            record.config["overlap"],
            record.config["cross_bucket_pipeline"],
        )
        expected = GOLDEN[cell]
        actual = (
            record.metrics["iteration_seconds"],
            record.metrics["communication_seconds"],
            record.metrics["speedup_vs_dense"],
        )
        assert actual == expected, f"{cell}: {actual} != {expected}"


def test_workload_splits_into_multiple_buckets(result):
    # The matrix is only a meaningful overlap/lane probe if the proxy is
    # genuinely bucketed.
    assert all(r.metrics["num_buckets"] > 1 for r in result.records)


def test_knobs_bite_where_they_should(result):
    by_cell = {
        (r.config["topology"], r.config["overlap"], r.config["cross_bucket_pipeline"]): r.metrics
        for r in result.records
    }
    for preset in TOPOLOGIES:
        # Overlap never hurts, and strictly helps on every preset here.
        serial = by_cell[(preset, "none", False)]["iteration_seconds"]
        overlapped = by_cell[(preset, "comm+compress", False)]["iteration_seconds"]
        assert overlapped < serial
        # Per-link lanes need multiple link levels in the allgather: the
        # single-level presets are lane-invariant, the multi-level ones gain.
        lanes_off = by_cell[(preset, "comm+compress", False)]["iteration_seconds"]
        lanes_on = by_cell[(preset, "comm+compress", True)]["iteration_seconds"]
        if preset in ("cluster1", "cluster1-25g", "cluster2"):
            assert lanes_on == lanes_off
        else:
            assert lanes_on < lanes_off
