"""Oracle tests for the auto-tuner.

The tuner's contract is auditable simplicity: with ``refine_rounds=0`` its
answer is *exactly* the exhaustive-enumeration argbest of the coarse grid
(no stochastic search to trust), its provenance trace covers every point,
priced or bounded, and refinement can only improve the incumbent.  Branch
and bound skips exactly the points whose lower bound exceeds the best,
whatever the cache holds.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import timeline
from repro.harness import (
    TUNE_TARGETS,
    SweepCache,
    SweepRecord,
    SweepSpec,
    WorkloadSpec,
    autotune,
    bound_point,
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


def _bounded(record) -> bool:
    return "lower_bound_seconds" in record.metrics


def _small_grid(workload):
    return SweepSpec(workloads=(workload,), axes={**SMALL_AXES, "topology": (PRESET,)})


class TestBranchAndBound:
    @pytest.mark.parametrize("refine_rounds", [0, 2])
    def test_trace_does_not_depend_on_the_cache(self, workload, refine_rounds):
        query = {"axes": SMALL_AXES, "refine_rounds": refine_rounds}
        uncached = autotune(workload, PRESET, memoize=False, **query)
        cache = SweepCache()
        cold = autotune(workload, PRESET, cache=cache, **query)
        warm = autotune(workload, PRESET, cache=cache, **query)
        prefilled = SweepCache()
        run_sweep(_small_grid(workload), cache=prefilled)
        after_sweep = autotune(workload, PRESET, cache=prefilled, **query)
        assert cold.trace == uncached.trace
        assert warm.trace == uncached.trace
        assert after_sweep.trace == uncached.trace
        bounded = [r for r in uncached.trace if _bounded(r)]
        assert bounded
        for record in bounded:
            assert record.metrics["lower_bound_seconds"] > uncached.best_metric

    def test_grid_points_are_priced_exactly_where_their_bound_can_win(self, workload):
        result = autotune(workload, PRESET, axes=SMALL_AXES, refine_rounds=0, cache=SweepCache())
        exhaustive = run_sweep(_small_grid(workload), memoize=False)
        assert [r.point for r in result.trace] == [r.point for r in exhaustive.records]
        for record, priced in zip(result.trace, exhaustive.records):
            bound = bound_point(workload, record.point)
            assert bound <= priced.metrics["iteration_seconds"]
            if bound > result.best_metric:
                assert record.metrics == {"lower_bound_seconds": bound}
            else:
                assert record.metrics == priced.metrics

    @pytest.mark.parametrize("target", sorted(set(TUNE_TARGETS) - {"iteration_seconds"}))
    def test_other_targets_price_every_point(self, workload, cache, target):
        result = autotune(
            workload, PRESET, target=target, axes=SMALL_AXES, refine_rounds=2, cache=cache
        )
        assert not any(_bounded(r) for r in result.trace)

    @pytest.mark.parametrize("refine_rounds, schedules", [(0, 1), (2, 3)])
    def test_scheduler_runs_only_for_points_that_can_win(
        self, workload, monkeypatch, refine_rounds, schedules
    ):
        # Exhaustive pricing schedules the grid's 12 overlapped points; a
        # weaker bound would schedule more of them.
        calls = []
        simulate = timeline.simulate_iteration_arrays

        def counted(**kwargs):
            calls.append(kwargs)
            return simulate(**kwargs)

        monkeypatch.setattr(timeline, "simulate_iteration_arrays", counted)
        autotune(
            workload, PRESET, axes=SMALL_AXES, refine_rounds=refine_rounds, cache=SweepCache()
        )
        assert len(calls) == schedules


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

    def test_memoize_off_with_a_cache_rejected(self, workload):
        with pytest.raises(ValueError, match="memoize=False"):
            autotune(workload, PRESET, axes=SMALL_AXES, cache=SweepCache(), memoize=False)

    def test_invalid_refinement_parameters_rejected(self, workload):
        with pytest.raises(ValueError, match="refine_rounds"):
            autotune(workload, PRESET, refine_rounds=-1)
        with pytest.raises(ValueError, match="ratio_step"):
            autotune(workload, PRESET, ratio_step=1.5)
