"""Tests for the consolidated SimulationKnobs bundle and its single-source contract.

The API's core promise: every surface that prices an iteration
(``TrainerConfig``, the sweep grid, ``run_benchmark``) reads its knob names,
defaults and validation from ``SimulationKnobs`` — so a default can no longer
drift between surfaces, and a new knob is automatically a trainer setting and
a sweep axis.
"""

from dataclasses import fields

import pytest

from repro.distributed import KNOB_FIELDS, SimulationKnobs, TrainerConfig
from repro.distributed.knobs import KNOB_CHECKS
from repro.harness import BenchmarkConfig
from repro.harness.sweep import DEFAULT_KNOBS, SWEEP_KNOBS, SweepSpec, WorkloadSpec


class TestSingleSourceOfTruth:
    def test_knob_fields_order_matches_dataclass(self):
        assert KNOB_FIELDS == tuple(f.name for f in fields(SimulationKnobs))

    def test_sweep_knobs_derive_from_knob_fields(self):
        assert SWEEP_KNOBS == ("compressor", "ratio", *KNOB_FIELDS)
        assert set(DEFAULT_KNOBS) == set(SWEEP_KNOBS)

    def test_configs_mirror_no_knob_fields(self):
        # Each config holds one bundle; a flat copy of any knob would let its
        # default drift from SimulationKnobs again.
        for config_cls in (TrainerConfig, BenchmarkConfig):
            assert not set(KNOB_FIELDS) & {f.name for f in fields(config_cls)}, config_cls

    def test_trainer_config_holds_the_bundle(self):
        bundle = SimulationKnobs(overlap="comm", sync_policy="time-window", time_window_factor=2.0)
        config = TrainerConfig(num_workers=2, compute_seconds=0.01, knobs=bundle)
        assert config.knobs is bundle
        assert config.faulted
        assert TrainerConfig(num_workers=2).knobs == SimulationKnobs()


class TestValidation:
    def test_defaults_are_clean(self):
        knobs = SimulationKnobs()
        assert not knobs.faulted
        assert knobs.as_dict() == {f.name: f.default for f in fields(SimulationKnobs)}

    def test_cross_knob_implications(self):
        with pytest.raises(ValueError, match="backup_workers > 0 requires"):
            SimulationKnobs(backup_workers=1)
        with pytest.raises(ValueError, match="time_window_factor requires"):
            SimulationKnobs(time_window_factor=1.5)
        # The consistent combinations construct fine.
        assert SimulationKnobs(sync_policy="backup-workers", backup_workers=2).faulted
        assert SimulationKnobs(sync_policy="time-window", time_window_factor=1.5).faulted

    def test_time_window_factor_must_be_finite_and_at_least_one(self):
        for bad in (0.5, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="time_window_factor must be >= 1"):
                SimulationKnobs(sync_policy="time-window", time_window_factor=bad)

    def test_unknown_scheduler_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduler backend 'gpu'"):
            SimulationKnobs(scheduler_backend="gpu")

    def test_rate_knobs_must_be_finite_and_at_least_one(self):
        for name in ("straggler_severity", "link_degradation"):
            for bad in (0.5, 0.0, float("inf"), float("nan")):
                with pytest.raises(ValueError, match=name):
                    SimulationKnobs(**{name: bad})

    def test_per_knob_validators_run(self):
        with pytest.raises(ValueError, match="bucket_bytes"):
            SimulationKnobs(bucket_bytes=0)
        with pytest.raises(ValueError, match="overlap"):
            SimulationKnobs(overlap="all-of-it")
        with pytest.raises(ValueError, match="sync policy"):
            SimulationKnobs(sync_policy="quorum")
        with pytest.raises(ValueError):
            SimulationKnobs(topology="no-such-fabric")

    @pytest.mark.parametrize("knob", ["bucket_bytes", "backup_workers", "pipeline_chunks"])
    @pytest.mark.parametrize("value", [True, False])
    def test_integer_knobs_reject_bool(self, knob, value):
        # bool is an int subclass: bucket_bytes=True would price 1-byte buckets.
        overrides = {knob: value}
        if knob == "backup_workers":
            overrides["sync_policy"] = "backup-workers"
        with pytest.raises(ValueError, match=knob):
            SimulationKnobs(**overrides)

    def test_replace_revalidates(self):
        knobs = SimulationKnobs()
        assert knobs.replace(overlap="comm").overlap == "comm"
        with pytest.raises(ValueError):
            knobs.replace(backup_workers=1)


class TestOneCheckPerKnob:
    """Each knob's own check is defined once, and the bundle and the sweep run it."""

    #: A mistyped value per knob: a fraction for a count, a string or bool for
    #: a factor, a number for a topology.
    MISTYPED = {
        "bucket_bytes": 100.5,
        "topology": 42,
        "backup_workers": 1.5,
        "time_window_factor": "2.0",
        "straggler_severity": "2.0",
        "link_degradation": True,
    }

    def test_every_knob_has_one_check_in_field_order(self):
        assert tuple(KNOB_CHECKS) == KNOB_FIELDS

    def test_fractional_bucket_bytes_and_backup_workers_rejected(self):
        with pytest.raises(ValueError, match="bucket_bytes"):
            SimulationKnobs(bucket_bytes=100.5)
        with pytest.raises(ValueError, match="backup_workers"):
            SimulationKnobs(backup_workers=1.5, sync_policy="backup-workers")

    @pytest.mark.parametrize("knob", sorted(MISTYPED))
    def test_bundle_and_sweep_reject_alike(self, knob):
        value = self.MISTYPED[knob]
        policy = {"backup_workers": "backup-workers", "time_window_factor": "time-window"}
        overrides = {knob: value}
        if knob in policy:
            overrides["sync_policy"] = policy[knob]
        with pytest.raises(ValueError, match=knob):
            SimulationKnobs(**overrides)
        workload = WorkloadSpec(name="w", dimension=100_000, comm_overhead=0.5)
        with pytest.raises(ValueError, match=knob):
            SweepSpec(workloads=(workload,), axes={knob: (value,)})


#: One off-default value per knob; a knob missing here fails the test below,
#: so every new knob must be classified as a fault knob or not.
OFF_DEFAULT = {
    "bucket_bytes": 4096,
    "overlap": "comm",
    "topology": "ethernet-4x8",
    "allreduce_algorithm": "recursive-doubling",
    "allgather_algorithm": "hierarchical",
    "pipeline_chunks": 4,
    "dedup_assumption": "uniform",
    "cross_bucket_pipeline": True,
    "scheduler_backend": "vectorized",
    "sync_policy": "time-window",
    "backup_workers": 1,
    "time_window_factor": 1.5,
    "straggler_severity": 2.0,
    "link_degradation": 2.0,
}
FAULT_FIELDS = {
    "sync_policy", "backup_workers", "time_window_factor", "straggler_severity", "link_degradation"
}


@pytest.mark.parametrize("name", KNOB_FIELDS)
def test_faulted_is_exactly_the_fault_fields(name):
    # ``faulted`` is the sweep's only fault predicate.  Each field is set
    # alone on a default bundle, past the cross-knob checks (backup_workers
    # and time_window_factor need their policy to construct), so the
    # property is seen reading that one field.
    assert FAULT_FIELDS < set(OFF_DEFAULT) == set(KNOB_FIELDS)
    knobs = SimulationKnobs()
    value = OFF_DEFAULT[name]
    assert value != getattr(knobs, name)
    object.__setattr__(knobs, name, value)
    assert knobs.faulted == (name in FAULT_FIELDS)
