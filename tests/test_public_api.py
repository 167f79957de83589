"""Tests for the top-level public API surface."""

import repro
from repro import (
    PAPER_COMPRESSORS,
    SIDCO_VARIANTS,
    SIDCo,
    SparseGradient,
    available_compressors,
    create_compressor,
)


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
        assert ClusterProfile.homogeneous(4).homogeneous_nominal
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
