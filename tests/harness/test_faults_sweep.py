"""Tests for fault/policy knobs as sweep axes, fault pricing, and reporting."""

import pytest

from repro.harness import (
    DEFAULT_CONSTRAINTS,
    WorkerCountConstraint,
    WorkloadSpec,
    autotune,
    evaluate_point,
    format_straggler_summary,
    run_sweep,
)
from repro.harness.sweep import SweepPoint, SweepSpec

WORKLOAD = WorkloadSpec(name="lstm-ptb", dimension=66_034_000, comm_overhead=0.94)


def _point(**overrides):
    return SweepPoint.from_config(WORKLOAD.name, overrides)


class TestFaultAxes:
    def test_policy_axes_expand_under_constraints(self):
        spec = SweepSpec(
            workloads=(WORKLOAD,),
            axes={
                "sync_policy": ("full-sync", "backup-workers"),
                "backup_workers": (0, 1),
                "straggler_severity": (1.0, 4.0),
            },
        )
        configs = [p.config for p in spec.expand()]
        # backup_workers=1 survives only under the backup-workers policy.
        assert all(
            c["sync_policy"] == "backup-workers" for c in configs if c["backup_workers"] == 1
        )
        assert len(configs) == 6  # 2 policies x {0} + backup x {1}, x 2 severities

    def test_time_window_axis_requires_policy(self):
        spec = SweepSpec(
            workloads=(WORKLOAD,),
            axes={
                "sync_policy": ("full-sync", "time-window"),
                "time_window_factor": (None, 1.25),
            },
        )
        configs = [p.config for p in spec.expand()]
        assert all(
            c["sync_policy"] == "time-window"
            for c in configs
            if c["time_window_factor"] is not None
        )

    def test_worker_count_constraint_drops_oversized_cuts(self):
        constraint = WorkerCountConstraint()
        assert constraint.admits({"backup_workers": 0, "topology": "ethernet-4x8"})
        assert constraint.admits({"backup_workers": 3, "topology": "ethernet-4x8"})
        assert not constraint.admits({"backup_workers": 99, "topology": "ethernet-4x8"})
        assert any(isinstance(c, WorkerCountConstraint) for c in DEFAULT_CONSTRAINTS)

    def test_invalid_fault_axis_values_rejected(self):
        for axes in (
            {"sync_policy": ("quorum",)},
            {"backup_workers": (-1,)},
            {"time_window_factor": (0.5,)},
            {"straggler_severity": (0.0,)},
            {"link_degradation": (float("nan"),)},
        ):
            with pytest.raises(ValueError):
                SweepSpec(workloads=(WORKLOAD,), axes=axes)


class TestFaultPricing:
    def test_defaults_price_the_clean_path_bit_for_bit(self):
        metrics = evaluate_point(WORKLOAD, _point(ratio=0.1))
        assert metrics["straggler_overhead"] == 1.0
        assert metrics["stragglers_cut"] == 0
        assert metrics["iteration_seconds"] == metrics["clean_iteration_seconds"]
        assert metrics["participating_workers"] == metrics["num_workers"]

    def test_compute_straggler_stretches_iteration(self):
        clean = evaluate_point(WORKLOAD, _point(ratio=0.1))
        slow = evaluate_point(WORKLOAD, _point(ratio=0.1, straggler_severity=4.0))
        assert slow["straggler_overhead"] > 1.0
        assert slow["iteration_seconds"] > clean["iteration_seconds"]
        assert slow["clean_iteration_seconds"] == clean["iteration_seconds"]

    def test_compression_reduces_compute_straggler_tolerance(self):
        # Compression shrinks the comm share, so a compute straggler's extra
        # backprop/compress time is a larger fraction of the iteration.
        mild = evaluate_point(WORKLOAD, _point(ratio=0.1, straggler_severity=4.0))
        aggressive = evaluate_point(WORKLOAD, _point(ratio=0.01, straggler_severity=4.0))
        assert aggressive["straggler_overhead"] > mild["straggler_overhead"]

    def test_compression_protects_against_link_degradation(self):
        mild = evaluate_point(WORKLOAD, _point(ratio=0.1, link_degradation=4.0))
        aggressive = evaluate_point(WORKLOAD, _point(ratio=0.01, link_degradation=4.0))
        assert aggressive["straggler_overhead"] < mild["straggler_overhead"]

    def test_backup_workers_cut_the_straggler(self):
        full = evaluate_point(WORKLOAD, _point(ratio=0.01, straggler_severity=4.0))
        backup = evaluate_point(
            WORKLOAD,
            _point(
                ratio=0.01,
                straggler_severity=4.0,
                sync_policy="backup-workers",
                backup_workers=1,
            ),
        )
        assert backup["iteration_seconds"] < full["iteration_seconds"]
        assert backup["stragglers_cut"] == 1
        assert backup["participating_workers"] == full["participating_workers"] - 1

    def test_dense_baseline_priced_under_same_faults(self):
        clean = evaluate_point(WORKLOAD, _point(ratio=0.1))
        slow = evaluate_point(WORKLOAD, _point(ratio=0.1, link_degradation=4.0))
        # The dense baseline suffers the same degraded cluster, so the
        # speedup compares like with like.
        assert slow["dense_baseline_seconds"] > clean["dense_baseline_seconds"]
        assert slow["speedup_vs_dense"] == pytest.approx(
            slow["dense_baseline_seconds"] / slow["iteration_seconds"]
        )

    def test_contradictory_points_raise_instead_of_pricing_clean(self):
        # Only a spec that drops DEFAULT_CONSTRAINTS can produce these; the
        # trainer rejects the same knobs, so the planner must not price
        # ``backup_workers=1`` under full-sync as a clean cluster.
        spec = SweepSpec(
            workloads=(WORKLOAD,),
            axes={"backup_workers": (0, 1), "straggler_severity": (2.0,)},
            constraints=(),
        )
        consistent, contradictory = spec.expand()
        assert evaluate_point(WORKLOAD, consistent)["stragglers_cut"] == 0
        with pytest.raises(ValueError, match="backup_workers > 0 requires"):
            evaluate_point(WORKLOAD, contradictory)
        with pytest.raises(ValueError, match="backup_workers > 0 requires"):
            run_sweep(spec, memoize=False)
        with pytest.raises(ValueError, match="time_window_factor requires"):
            evaluate_point(WORKLOAD, _point(time_window_factor=1.5))

    @pytest.mark.parametrize("backups", [32, 40])
    def test_a_cut_of_every_worker_raises_like_the_trainer(self, backups):
        # ethernet-4x8 has 32 workers: TrainerConfig rejects backup_workers >= 32,
        # so the planner must not price the point as one participant.
        from repro.harness.sweep import bound_point

        point = _point(
            topology="ethernet-4x8", bucket_bytes=None, sync_policy="backup-workers",
            backup_workers=backups,
        )
        assert not WorkerCountConstraint().admits(point.config)
        with pytest.raises(ValueError, match="at least one participant"):
            evaluate_point(WORKLOAD, point)
        with pytest.raises(ValueError, match="at least one participant"):
            bound_point(WORKLOAD, point)

    def test_a_cut_leaving_one_worker_prices_it(self):
        point = _point(
            topology="ethernet-4x8", bucket_bytes=None, sync_policy="backup-workers",
            backup_workers=31,
        )
        assert WorkerCountConstraint().admits(point.config)
        metrics = evaluate_point(WORKLOAD, point)
        assert (metrics["participating_workers"], metrics["stragglers_cut"]) == (1, 31)

    def test_fault_points_cache_cleanly(self):
        from repro.harness import SweepCache

        cache = SweepCache()
        point = _point(ratio=0.1, straggler_severity=2.0)
        first = evaluate_point(WORKLOAD, point, cache=cache)
        second = evaluate_point(WORKLOAD, point, cache=cache)
        assert first == second
        assert cache.hits >= 1


class TestTunerAndReporting:
    def test_autotune_minimizes_straggler_overhead(self):
        result = autotune(
            WORKLOAD,
            "ethernet-4x8",
            target="straggler_overhead",
            axes={
                "ratio": (0.01,),
                "sync_policy": ("full-sync", "backup-workers"),
                "backup_workers": (0, 1),
                "straggler_severity": (4.0,),
            },
            refine_rounds=0,
        )
        # Cutting the straggler is the argbest mitigation on this grid.
        assert result.best_config["sync_policy"] == "backup-workers"
        assert result.best_metric < max(r.metrics["straggler_overhead"] for r in result.trace)

    def test_sweep_runs_fault_axes_end_to_end(self):
        spec = SweepSpec(
            workloads=(WORKLOAD,),
            axes={
                "ratio": (0.1, 0.01),
                "straggler_severity": (1.0, 4.0),
            },
        )
        result = run_sweep(spec, memoize=False)
        assert len(result.records) == 4
        assert all("straggler_overhead" in r.metrics for r in result.records)
        rendered = format_straggler_summary(result.records)
        assert "straggler overhead" in rendered
        assert "policy=full-sync" in rendered

    def test_format_straggler_summary_accepts_flat_rows(self):
        rendered = format_straggler_summary(
            [
                {
                    "sync_policy": "backup-workers",
                    "straggler_severity": 4.0,
                    "link_degradation": 1.0,
                    "straggler_overhead": 1.02,
                    "participating_workers": 31,
                    "stragglers_cut": 1,
                }
            ]
        )
        assert "policy=backup-workers" in rendered
        assert "cut=1" in rendered
