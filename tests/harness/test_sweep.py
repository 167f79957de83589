"""Property suite for the declarative sweep engine.

Two contracts, hypothesis-driven:

* **expansion** — ``SweepSpec.expand()`` is exactly the constrained
  cross-product of the axes (workloads slowest, knobs in canonical order),
  with no duplicates, defaults filled for unswept knobs, and every
  constraint honoured;
* **memoization transparency** — a memoized run is bit-for-bit equal to a
  memoization-off run of the same spec.
"""

import itertools
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.harness import (
    DEFAULT_CONSTRAINTS,
    DEFAULT_KNOBS,
    SWEEP_KNOBS,
    KnobConstraint,
    SweepCache,
    SweepPoint,
    SweepSpec,
    WorkloadSpec,
    autotune,
    evaluate_point,
    run_sweep,
)

#: Small but structurally diverse axis pools the property tests draw from.
AXIS_POOLS = {
    "compressor": ("topk", "dgc", "randomk"),
    "ratio": (0.1, 0.05, 0.01),
    "bucket_bytes": (2**20, 4 * 2**20, None),
    "overlap": ("none", "comm", "comm+compress"),
    "topology": ("ethernet-4x8", "cluster1", "torus-2d"),
    "allreduce_algorithm": ("ring-allreduce", "hierarchical"),
    "allgather_algorithm": ("flat-allgather", "hierarchical"),
    "pipeline_chunks": (1, 4),
    "dedup_assumption": (None, "uniform", "identical"),
    "cross_bucket_pipeline": (False, True),
    "scheduler_backend": ("loop", "vectorized"),
    "sync_policy": ("full-sync", "backup-workers", "time-window"),
    # 8 backups fit ethernet-4x8 (32 workers) and torus-2d (16), not cluster1 (8).
    "backup_workers": (0, 2, 8),
    "time_window_factor": (None, 1.5),
    "straggler_severity": (1.0, 2.0),
    "link_degradation": (1.0, 3.0),
}


def _workload(name="wl", seed=0):
    return WorkloadSpec(
        name=name, dimension=500_000, comm_overhead=0.6, proxy_elements=2048, seed=seed
    )


@st.composite
def axes_strategy(draw):
    """A random subset of knobs, each with a random non-empty subset of values."""
    knobs = draw(
        st.lists(st.sampled_from(sorted(AXIS_POOLS)), min_size=1, max_size=4, unique=True)
    )
    axes = {}
    for knob in knobs:
        pool = AXIS_POOLS[knob]
        count = draw(st.integers(min_value=1, max_value=len(pool)))
        axes[knob] = pool[:count]
    return axes


def _reject_faulted_dgc(config):
    """A plain-callable constraint: no DGC point on a cluster with a straggler."""
    return config["compressor"] != "dgc" or config["straggler_severity"] == 1.0


class TestExpansion:
    def test_axis_pools_cover_every_sweep_knob(self):
        assert set(AXIS_POOLS) == set(SWEEP_KNOBS)

    @settings(max_examples=150, deadline=None)
    @given(axes=axes_strategy())
    def test_expand_is_exactly_the_constrained_cross_product(self, axes):
        spec = SweepSpec(workloads=(_workload(),), axes=axes)
        points = spec.expand()
        # Reference: brute-force product in the same canonical order.
        grid = [axes.get(knob, (DEFAULT_KNOBS[knob],)) for knob in SWEEP_KNOBS]
        expected = []
        for combo in itertools.product(*grid):
            config = dict(zip(SWEEP_KNOBS, combo))
            if all(c.admits(config) for c in DEFAULT_CONSTRAINTS):
                expected.append(SweepPoint(workload="wl", knobs=tuple(zip(SWEEP_KNOBS, combo))))
        assert points == expected

    @settings(max_examples=150, deadline=None)
    @given(axes=axes_strategy())
    def test_plain_callable_mixed_with_default_constraints(self, axes):
        constraints = (*DEFAULT_CONSTRAINTS, _reject_faulted_dgc)
        spec = SweepSpec(workloads=(_workload(),), axes=axes, constraints=constraints)
        grid = [axes.get(knob, (DEFAULT_KNOBS[knob],)) for knob in SWEEP_KNOBS]
        expected = []
        for combo in itertools.product(*grid):
            config = dict(zip(SWEEP_KNOBS, combo))
            if all(getattr(c, "admits", c)(config) for c in constraints):
                expected.append(SweepPoint(workload="wl", knobs=tuple(zip(SWEEP_KNOBS, combo))))
        assert spec.expand() == expected

    @settings(max_examples=150, deadline=None)
    @given(axes=axes_strategy())
    def test_no_duplicates_even_with_repeated_axis_values(self, axes):
        knob = next(iter(axes))
        doubled = {**axes, knob: axes[knob] + axes[knob]}
        spec = SweepSpec(workloads=(_workload(),), axes=doubled)
        points = spec.expand()
        assert len(points) == len(set(points))
        assert points == SweepSpec(workloads=(_workload(),), axes=axes).expand()

    def test_every_point_carries_every_knob_with_defaults_filled(self):
        spec = SweepSpec(workloads=(_workload(),), axes={"ratio": (0.1, 0.01)})
        for point in spec.expand():
            config = point.config
            assert set(config) == set(SWEEP_KNOBS)
            for knob in SWEEP_KNOBS:
                if knob != "ratio":
                    assert config[knob] == DEFAULT_KNOBS[knob]

    def test_constraints_drop_dedup_without_hierarchical(self):
        spec = SweepSpec(
            workloads=(_workload(),),
            axes={
                "dedup_assumption": (None, "uniform"),
                "allgather_algorithm": ("flat-allgather", "hierarchical"),
            },
        )
        configs = [p.config for p in spec.expand()]
        assert len(configs) == 3  # 2x2 minus (uniform, flat)
        for config in configs:
            if config["dedup_assumption"] is not None:
                assert config["allgather_algorithm"] == "hierarchical"

    def test_worker_count_constraint_drops_backups_the_fabric_cannot_spare(self):
        spec = SweepSpec(
            workloads=(_workload(),),
            axes={
                "sync_policy": ("backup-workers",),
                "backup_workers": (0, 8),
                "topology": ("ethernet-4x8", "cluster1"),
            },
        )
        # cluster1 has 8 workers: cutting 8 would leave no participant.
        assert [(p.config["topology"], p.config["backup_workers"]) for p in spec.expand()] == [
            ("ethernet-4x8", 0),
            ("ethernet-4x8", 8),
            ("cluster1", 0),
        ]

    def test_workloads_vary_slowest_and_order_is_deterministic(self):
        spec = SweepSpec(
            workloads=(_workload("a"), _workload("b", seed=1)),
            axes={"ratio": (0.1, 0.01)},
        )
        assert [(p.workload, p.config["ratio"]) for p in spec.expand()] == [
            ("a", 0.1),
            ("a", 0.01),
            ("b", 0.1),
            ("b", 0.01),
        ]

    def test_custom_callable_constraint(self):
        spec = SweepSpec(
            workloads=(_workload(),),
            axes={"ratio": (0.1, 0.01)},
            constraints=(lambda config: config["ratio"] < 0.05,),
        )
        assert [p.config["ratio"] for p in spec.expand()] == [0.01]

    def test_constraint_runs_once_per_distinct_value_of_what_it_reads(self):
        seen = []

        class SmallRatios:
            reads = ("ratio",)

            def admits(self, config):
                seen.append(dict(config))
                return config["ratio"] < 0.05

        spec = SweepSpec(
            workloads=(_workload("a"), _workload("b", seed=1)),
            axes={"ratio": (0.1, 0.01, 0.1), "compressor": ("topk", "dgc", "randomk")},
            constraints=(SmallRatios(),),
        )
        points = spec.expand()
        assert seen == [{"ratio": 0.1}, {"ratio": 0.01}]
        assert [(p.workload, p.config["compressor"]) for p in points] == [
            (w, c) for w in "ab" for c in ("topk", "dgc", "randomk")
        ]
        assert all(p.config["ratio"] == 0.01 for p in points)


class TestSpecValidation:
    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown axes"):
            SweepSpec(workloads=(_workload(),), axes={"compression": ("topk",)})

    def test_invalid_axis_value_rejected_at_construction(self):
        for axes in (
            {"compressor": ("brotli",)},
            {"ratio": (1.5,)},
            {"overlap": ("full",)},
            {"topology": ("my-cluster",)},
            {"bucket_bytes": (-1,)},
            {"dedup_assumption": ("sometimes",)},
        ):
            with pytest.raises(ValueError):
                SweepSpec(workloads=(_workload(),), axes=axes)

    @pytest.mark.parametrize("knob", ["bucket_bytes", "backup_workers", "pipeline_chunks"])
    @pytest.mark.parametrize("value", [True, False])
    def test_integer_axes_reject_bool(self, knob, value):
        with pytest.raises(ValueError, match=knob):
            SweepSpec(workloads=(_workload(),), axes={knob: (value,)})

    def test_duplicate_workload_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            SweepSpec(workloads=(_workload(), _workload(seed=1)), axes={"ratio": (0.1,)})

    def test_workload_validation(self):
        with pytest.raises(ValueError, match="comm_overhead"):
            WorkloadSpec(name="w", dimension=100_000, comm_overhead=1.5)
        with pytest.raises(ValueError, match="dimension"):
            WorkloadSpec(name="w", dimension=8, comm_overhead=0.5, proxy_elements=4096)

    def test_constraint_rejects_unknown_knob(self):
        with pytest.raises(ValueError, match="unknown knob"):
            KnobConstraint(
                name="bad", knob="sparsity", inactive=(None,), target="ratio", allowed=(0.1,)
            )


EQUIVALENCE_SPEC_AXES = {
    "compressor": ("topk", "dgc"),
    "ratio": (0.1, 0.01),
    "overlap": ("none", "comm+compress"),
    "allgather_algorithm": ("flat-allgather", "hierarchical"),
    "dedup_assumption": (None, "uniform"),
    "cross_bucket_pipeline": (False, True),
    # Chunked tables (PhaseTable.from_costs), the unbucketed all-gather and the
    # faulted dense all-reduce all price through the timeline's memo.
    "pipeline_chunks": (1, 4),
    "bucket_bytes": (None, 4 * 2**20),
    "straggler_severity": (1.0, 2.0),
}


class TestTopologyValues:
    """The sweep takes the topology values ``SimulationKnobs`` takes."""

    def test_an_explicit_topology_prices_as_its_preset_name(self):
        from repro.distributed import get_topology

        named = SweepPoint.from_config("wl", {"topology": "torus-2d"})
        explicit = SweepPoint.from_config("wl", {"topology": get_topology("torus-2d")})
        SweepSpec(workloads=(_workload(),), axes={"topology": (get_topology("torus-2d"),)})
        assert evaluate_point(_workload(), explicit, cache=None) == evaluate_point(
            _workload(), named, cache=None
        )

    def test_a_point_without_a_topology_raises(self):
        SweepSpec(workloads=(_workload(),), axes={"topology": (None,)})
        point = SweepPoint.from_config("wl", {"topology": None})
        with pytest.raises(ValueError, match="needs a topology"):
            evaluate_point(_workload(), point, cache=None)


class TestExecutionEquivalence:
    @pytest.fixture(scope="class")
    def spec(self):
        return SweepSpec(workloads=(_workload(),), axes=EQUIVALENCE_SPEC_AXES)

    @pytest.fixture(scope="class")
    def uncached(self, spec):
        return run_sweep(spec, memoize=False)

    def test_memoized_equals_memoization_off_bit_for_bit(self, spec, uncached):
        cache = SweepCache()
        memoized = run_sweep(spec, cache=cache)
        assert memoized.records == uncached.records
        assert cache.misses > 0
        # The tuner over the same grid, bounds and refinement included.
        query = {"axes": EQUIVALENCE_SPEC_AXES}
        tuned = autotune(_workload(), "ethernet-4x8", cache=cache, **query)
        assert tuned.trace == autotune(_workload(), "ethernet-4x8", memoize=False, **query).trace
        assert any("lower_bound_seconds" in r.metrics for r in tuned.trace)
        assert cache.stats()["bounds"] == len(cache.bounds) > 0

    def test_memoize_off_with_a_cache_rejected(self, spec):
        with pytest.raises(ValueError, match="memoize=False"):
            run_sweep(spec, cache=SweepCache(), memoize=False)

    def test_warm_cache_replays_bit_for_bit(self, spec, uncached):
        cache = SweepCache()
        run_sweep(spec, cache=cache)
        hits_before = cache.hits
        warm = run_sweep(spec, cache=cache)
        assert warm.records == uncached.records
        # Every point replays from the point-level cache.
        assert cache.hits - hits_before == len(uncached.records)

    def test_evaluate_point_rejects_foreign_workload(self):
        point = SweepPoint.from_config("other", {})
        with pytest.raises(ValueError, match="belongs to workload"):
            evaluate_point(_workload(), point)


class TestSerialization:
    def test_point_key_is_stable_and_unique(self):
        spec = SweepSpec(
            workloads=(_workload(),),
            axes={"ratio": (0.1, 0.01), "overlap": ("none", "comm")},
        )
        keys = [p.key for p in spec.expand()]
        assert len(set(keys)) == len(keys)
        assert all(key.startswith("wl|") for key in keys)

    def test_point_hash_agrees_with_equality(self):
        whole = SweepPoint.from_config("wl", {"pipeline_chunks": 1})
        same = SweepPoint.from_config("wl", {"pipeline_chunks": 1.0})
        assert whole == same and hash(whole) == hash(same)
        assert whole != SweepPoint.from_config("wl", {"pipeline_chunks": 4})

    def test_unpickled_point_rehashes_in_the_loading_process(self):
        # The hash is cached per point; a pickle must not carry it into a
        # process whose str hashes differ.
        point = SweepPoint.from_config("wl", {"ratio": 0.01})
        code = (
            "import pickle, sys; p = pickle.loads(sys.stdin.buffer.read()); "
            "print(hash(p) == hash((p.workload, p.knobs)))"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        out = subprocess.run(
            [sys.executable, "-c", code],
            input=pickle.dumps(point),
            capture_output=True,
            env={**os.environ, "PYTHONHASHSEED": "123", "PYTHONPATH": path},
            check=True,
        )
        assert out.stdout.strip() == b"True"
        assert pickle.loads(pickle.dumps(point)) == point
