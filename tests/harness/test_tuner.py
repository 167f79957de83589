"""Oracle tests for the auto-tuner.

The tuner's contract is auditable simplicity: with ``refine_rounds=0`` its
answer is *exactly* the exhaustive-enumeration argbest of the coarse grid
(no stochastic search to trust), its provenance trace covers every evaluated
point, and refinement can only improve the incumbent.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness import (
    SweepCache,
    SweepRecord,
    SweepSpec,
    WorkloadSpec,
    autotune,
    run_sweep,
)
from repro.harness.tuner import _argbest

SMALL_AXES = {
    "compressor": ("topk", "dgc"),
    "ratio": (0.1, 0.01),
    "bucket_bytes": (2**20,),
    "overlap": ("none", "comm+compress"),
    "allgather_algorithm": ("flat-allgather", "hierarchical"),
    "dedup_assumption": (None, "uniform"),
}

PRESET = "ethernet-4x8"


def _workload(seed=0):
    return WorkloadSpec(
        name="oracle", dimension=500_000, comm_overhead=0.6, proxy_elements=2048, seed=seed
    )


@pytest.fixture(scope="module")
def workload():
    return _workload()


@pytest.fixture(scope="module")
def cache():
    return SweepCache()


class TestExhaustiveOracle:
    @pytest.mark.parametrize(
        "target, mode",
        [
            ("iteration_seconds", min),
            ("communication_seconds", min),
            ("speedup_vs_dense", max),
            ("overlap_saving", max),
        ],
    )
    def test_grid_argbest_matches_exhaustive_enumeration(self, workload, cache, target, mode):
        result = autotune(
            workload, PRESET, target=target, axes=SMALL_AXES, refine_rounds=0, cache=cache
        )
        exhaustive = run_sweep(
            SweepSpec(workloads=(workload,), axes={**SMALL_AXES, "topology": (PRESET,)}),
            cache=cache,
        )
        oracle = mode(r.metrics[target] for r in exhaustive.records)
        assert result.best_metric == oracle
        assert result.best.metrics[target] == oracle

    def test_trace_covers_every_grid_point_exactly_once(self, workload, cache):
        result = autotune(workload, PRESET, axes=SMALL_AXES, refine_rounds=0, cache=cache)
        spec = SweepSpec(workloads=(workload,), axes={**SMALL_AXES, "topology": (PRESET,)})
        assert [r.point for r in result.trace] == spec.expand()
        assert result.queries == len(result.trace)

    def test_ties_break_deterministically(self, workload, cache):
        # Two autotune runs over the same grid must pick the identical record,
        # even when several configs price identically (overlap no-ops, etc.).
        first = autotune(workload, PRESET, axes=SMALL_AXES, refine_rounds=0, cache=cache)
        second = autotune(workload, PRESET, axes=SMALL_AXES, refine_rounds=0)
        assert first.best == second.best


#: Few distinct values, so draws tie often; signed zeros and infinities included.
TIED_VALUES = st.sampled_from([0.0, -0.0, 1.0, 2.5, math.inf, -math.inf])
#: Few distinct configs, so some records share a point (and its key).
TIED_CONFIGS = st.fixed_dictionaries(
    {"compressor": st.sampled_from(["topk", "dgc"]), "ratio": st.sampled_from([0.1, 0.01])}
)


class TestRankingOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        draws=st.lists(st.tuples(TIED_CONFIGS, TIED_VALUES), min_size=1, max_size=12),
        target=st.sampled_from(["iteration_seconds", "speedup_vs_dense"]),
    )
    def test_argbest_is_the_metric_then_key_minimum(self, draws, target):
        mode = "max" if target == "speedup_vs_dense" else "min"
        records = [
            SweepRecord(workload="oracle", config=config, metrics={target: value})
            for config, value in draws
        ]
        signed = (lambda v: -v) if mode == "max" else (lambda v: v)
        expected = min(records, key=lambda r: (signed(r.metrics[target]), r.point.key))
        assert _argbest(records, target, mode) is expected

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="no points"):
            _argbest([], "iteration_seconds", "min")


class TestRefinement:
    def test_refinement_extends_trace_and_never_worsens(self, workload, cache):
        coarse = autotune(workload, PRESET, axes=SMALL_AXES, refine_rounds=0, cache=cache)
        refined = autotune(workload, PRESET, axes=SMALL_AXES, refine_rounds=3, cache=cache)
        assert refined.best_metric <= coarse.best_metric
        # The coarse grid is a prefix of the refined trace.
        assert refined.trace[: len(coarse.trace)] == coarse.trace
        assert refined.queries >= coarse.queries

    def test_refined_points_respect_constraints_and_bounds(self, workload, cache):
        refined = autotune(workload, PRESET, axes=SMALL_AXES, refine_rounds=3, cache=cache)
        for record in refined.trace:
            config = record.config
            assert 0.0 < config["ratio"] <= 1.0
            if config["dedup_assumption"] is not None:
                assert config["allgather_algorithm"] == "hierarchical"

    def test_trace_has_no_duplicate_points(self, workload, cache):
        refined = autotune(workload, PRESET, axes=SMALL_AXES, refine_rounds=3, cache=cache)
        points = [r.point for r in refined.trace]
        assert len(points) == len(set(points))

    def test_provenance_replays_on_a_warm_cache(self, workload):
        cache = SweepCache()
        cold = autotune(workload, PRESET, axes=SMALL_AXES, refine_rounds=2, cache=cache)
        warm = autotune(workload, PRESET, axes=SMALL_AXES, refine_rounds=2, cache=cache)
        assert warm.trace == cold.trace
        assert warm.best == cold.best


class TestTunerInterface:
    def test_benchmark_name_resolves_to_table1_workload(self, cache):
        result = autotune(
            "vgg16-cifar10",
            PRESET,
            axes={"ratio": (0.1, 0.01)},
            refine_rounds=0,
            cache=cache,
        )
        assert result.workload.name == "vgg16-cifar10"
        assert result.workload.dimension > 10_000_000  # Table 1: ~14M parameters

    def test_multiple_topologies_let_the_tuner_pick_the_fabric(self, workload, cache):
        result = autotune(
            workload,
            ("cluster1", "ethernet-4x8"),
            axes={"ratio": (0.1, 0.01)},
            refine_rounds=0,
            cache=cache,
        )
        assert result.best_config["topology"] in {"cluster1", "ethernet-4x8"}
        assert {r.config["topology"] for r in result.trace} == {"cluster1", "ethernet-4x8"}

    def test_unknown_target_rejected(self, workload):
        with pytest.raises(ValueError, match="unknown tuning target"):
            autotune(workload, PRESET, target="accuracy")

    def test_invalid_refinement_parameters_rejected(self, workload):
        with pytest.raises(ValueError, match="refine_rounds"):
            autotune(workload, PRESET, refine_rounds=-1)
        with pytest.raises(ValueError, match="ratio_step"):
            autotune(workload, PRESET, ratio_step=1.5)
