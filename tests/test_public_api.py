"""Tests for the top-level public API surface."""

import importlib

import pytest

import repro
from repro import (
    PAPER_COMPRESSORS,
    SIDCO_VARIANTS,
    SIDCo,
    SparseGradient,
    available_compressors,
    create_compressor,
)
from tests import synthetic

#: ``(package, name)`` of each export 5.0.0 deleted.
DROPPED_EXPORTS = [
    ("repro.distributed", "train_baseline_and_compressed"),
    ("repro.distributed", "WorkerStep"),
    ("repro.perfmodel", "CostBreakdown"),
    ("repro.perfmodel", "breakdown"),
    ("repro.perfmodel", "get_device"),
    ("repro.perfmodel", "latency_breakdown"),
    ("repro.perfmodel", "speedup_over_reference"),
    ("repro.nn", "mse"),
    ("repro.stats", "sparsification_error"),
    ("repro.stats", "power_law_envelope"),
    ("repro.stats", "empirical_pdf"),
    ("repro.stats", "EmpiricalDensity"),
    ("repro.optim", "clip_by_global_norm"),
    ("repro.compressors", "register_compressor"),
]

#: ``(package, name)`` of each export 5.0.0 moved to ``tests/synthetic.py``.
MOVED_FIXTURES = [
    ("repro.gradients", "laplace_gradient"),
    ("repro.gradients", "double_gamma_gradient"),
    ("repro.gradients", "double_gpareto_gradient"),
    ("repro.gradients", "sid_gradient"),
    ("repro.gradients", "model_sized_gradient"),
    ("repro.gradients", "evolving_gradients"),
    ("repro.data", "make_blobs_classification"),
    ("repro.data", "make_regression"),
]

#: ``(package.Class, member)`` of each class member 5.0.0 deleted.
DROPPED_MEMBERS = [
    ("repro.distributed.Worker", "compute_gradient"),
    ("repro.distributed.Worker", "step"),
    ("repro.distributed.Worker", "reset"),
    ("repro.distributed.NetworkModel", "transfer_time"),
    ("repro.distributed.CollectiveModel", "allreduce_time"),
    ("repro.distributed.CollectiveModel", "allgather_time"),
    ("repro.distributed.CollectiveCost", "is_pipelined"),
    ("repro.distributed.CollectiveCost", "volume_bytes"),
    ("repro.distributed.SparseAggregateModel", "union_payload_bytes"),
    ("repro.distributed.SparseAggregateModel", "dedup_ratio"),
    ("repro.distributed.ClusterTopology", "num_levels"),
    ("repro.distributed.TrainingMetrics", "__len__"),
    ("repro.distributed.TrainingMetrics", "loss_vs_walltime"),
    ("repro.distributed.TimelineModel", "communication_overhead_fraction"),
    ("repro.distributed.ScheduleArrays", "overlap_saving"),
    ("repro.distributed.ScheduleArrays", "total_compress_seconds"),
    ("repro.nn.Module", "train"),
    ("repro.nn.Module", "eval"),
    ("repro.nn.Module", "state_dict"),
    ("repro.nn.Module", "load_state_dict"),
    ("repro.nn.Module", "gradient_dict"),
    ("repro.optim.SGD", "state_dict"),
    ("repro.optim.ErrorFeedback", "step"),
    ("repro.optim.ErrorFeedback", "reset"),
    ("repro.data.BatchIterator", "__iter__"),
    ("repro.data.BatchIterator", "__next__"),
    ("repro.data.BatchIterator", "batches_per_epoch"),
    ("repro.gradients.GradientCapture", "get"),
    ("repro.gradients.GradientCapture", "captured_iterations"),
    ("repro.tensor.FlatSpec", "slot"),
    ("repro.tensor.FlatSpec", "offsets"),
    ("repro.tensor.FlatSpec", "from_arrays"),
    ("repro.tensor.SparseGradient", "from_dense"),
    ("repro.pipeline.BucketLayout", "is_ragged"),
    ("repro.stats.FitResult", "params"),
    ("repro.stats.Gamma", "mean"),
    ("repro.stats.Laplace", "fit"),
    ("repro.stats.DoubleGeneralizedPareto", "fit"),
    ("repro.compressors.Compressor", "reset"),
    ("repro.compressors.DGC", "reset"),
    ("repro.compressors.RandomK", "reset"),
    ("repro.compressors.AdaptiveHardThreshold", "reset"),
    ("repro.core.SIDCo", "reset"),
    ("repro.core.StageController", "reset"),
    ("repro.pipeline.CompressionPipeline", "reset"),
]


def _still_exported(module, removed: set[str]) -> list[str]:
    """The names of ``removed`` that ``module`` still lists or still has."""
    return sorted(name for name in removed if name in module.__all__ or hasattr(module, name))


class TestPublicAPI:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_all_exports_resolvable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackage_exports_resolvable(self):
        import repro.distributed
        import repro.harness

        for module in (repro.distributed, repro.harness):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"

    def test_core_surface_has_one_sidco_estimator(self):
        import repro.core

        # Unbucketed SIDCo is the one-bucket batched fit; the scalar estimator is gone.
        removed = {"estimate_multi_stage", "estimate_single_stage", "ThresholdEstimate", "stage_ratios"}
        assert not removed & set(repro.core.__all__)
        assert not [name for name in removed if hasattr(repro.core, name)]

    # 4.0.0 removed what no product path reached, one family per test below.

    def test_convergence_bounds_are_gone(self):
        import repro.core

        removed = {
            "ConvergenceBound",
            "contraction_factor",
            "error_feedback_residual_bound",
            "extra_iterations_fraction",
            "iterations_to_sgd_rate",
        }
        assert not removed & set(repro.core.__all__)
        assert not [name for name in removed if hasattr(repro.core, name)]

    def test_lr_schedules_are_gone(self):
        import repro.optim

        removed = {"LRScheduler", "ConstantLR", "CosineAnnealing", "WarmupStepDecay"}
        assert not removed & set(repro.optim.__all__)
        assert not [name for name in removed if hasattr(repro.optim, name)]

    def test_unused_nn_layers_are_gone(self):
        import repro.nn

        removed = {"Tanh", "Sigmoid", "Dropout"}
        assert not removed & set(repro.nn.__all__)
        assert not [name for name in removed if hasattr(repro.nn, name)]

    def test_process_wide_sweep_cache_helpers_are_gone(self):
        import repro.harness

        removed = {"global_sweep_cache", "clear_sweep_caches"}
        assert not removed & set(repro.harness.__all__)
        assert not [name for name in removed if hasattr(repro.harness, name)]

    # 5.0.0 removed what only tier-1 reached: one case per name in the tables
    # above. The test fixtures among it moved to tests/synthetic.py.

    @pytest.mark.parametrize("package, name", DROPPED_EXPORTS)
    def test_dropped_export_is_gone(self, package, name):
        assert _still_exported(importlib.import_module(package), {name}) == []

    @pytest.mark.parametrize("package, name", MOVED_FIXTURES)
    def test_fixture_moved_to_the_tests(self, package, name):
        assert _still_exported(importlib.import_module(package), {name}) == []
        assert callable(getattr(synthetic, name))

    @pytest.mark.parametrize("owner, member", DROPPED_MEMBERS)
    def test_dropped_member_is_gone(self, owner, member):
        package, _, cls = owner.rpartition(".")
        assert not hasattr(getattr(importlib.import_module(package), cls), member)

    def test_dropped_instance_state_is_gone(self):
        from repro.core.stages import StageController
        from repro.nn import Module
        from repro.optim import ErrorFeedback

        assert not hasattr(Module(), "training")
        assert not hasattr(ErrorFeedback(4), "memory")
        assert not hasattr(StageController(), "history")

    @pytest.mark.parametrize("name", ["sidco-e-bucketed", "sidco-gp-bucketed", "sidco-p-bucketed"])
    def test_bucketed_sidco_registry_name_is_gone(self, name):
        assert name not in available_compressors()
        with pytest.raises(ValueError, match="unknown compressor"):
            create_compressor(name)

    def test_distributed_surface_has_one_knob_bundle_and_no_pools(self):
        import repro.distributed

        exported = set(repro.distributed.__all__)
        assert {"SimulationKnobs", "KNOB_FIELDS", "TrainerConfig", "Worker"} <= exported
        # Compression runs in-process; no worker-pool machinery is public.
        assert not [name for name in exported if "Pool" in name or "CompressionBackend" in name]

    def test_distributed_surface_has_one_scheduler(self):
        import repro.distributed

        exported = set(repro.distributed.__all__)
        assert {"simulate_iteration_arrays", "PhaseTable", "ScheduleArrays"} <= exported
        removed = {
            "simulate_iteration",
            "BucketTask",
            "SCHEDULER_BACKENDS",
            "validate_scheduler_backend",
            "reset_bucket_fallback_warnings",
            "IterationSchedule",
            "BucketEvent",
            "PhaseEvent",
        }
        assert not removed & exported
        assert not [name for name in removed if hasattr(repro.distributed, name)]

    def test_fault_and_knob_surfaces_exposed(self):
        from repro.distributed import (
            SYNC_POLICIES,
            ClusterProfile,
            SimulationKnobs,
            StragglerInjector,
            WorkerChurn,
            get_sync_policy,
        )
        from repro.harness import (
            SWEEP_KNOBS,
            WorkerCountConstraint,
            format_straggler_summary,
        )

        assert SYNC_POLICIES == ("full-sync", "backup-workers", "time-window")
        # The sweep grid's tail is exactly the SimulationKnobs field order.
        assert SWEEP_KNOBS[2:] == tuple(SimulationKnobs().as_dict())
        assert SimulationKnobs().faulted is False
        assert ClusterProfile.homogeneous(4).num_workers == 4
        assert get_sync_policy("full-sync").name == "full-sync"
        assert WorkerCountConstraint().admits(
            {"backup_workers": 0, "topology": "ethernet-4x8"}
        )
        assert callable(StragglerInjector(seed=0).apply)
        assert callable(WorkerChurn(seed=0).apply)
        assert format_straggler_summary([]).startswith("straggler overhead")

    def test_paper_lineup_exposed(self):
        assert "sidco-e" in PAPER_COMPRESSORS
        assert set(SIDCO_VARIANTS) <= set(available_compressors())

    def test_quickstart_flow(self, small_gradient):
        # The README's three-line quickstart must keep working.
        compressor = create_compressor("sidco-e")
        result = compressor.compress(small_gradient, 0.01)
        assert isinstance(compressor, SIDCo)
        assert isinstance(result.sparse, SparseGradient)
        assert 0.0 < result.achieved_ratio < 0.2
