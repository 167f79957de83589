"""Integration tests for the distributed trainer."""

import numpy as np
import pytest

from repro.compressors import SIDCO_VARIANTS, create_compressor
from repro.data import make_language_modeling, make_sequence_classification
from repro.distributed import (
    KNOB_FIELDS,
    DistributedTrainer,
    SimulationKnobs,
    TrainerConfig,
    WorkerChurn,
    price_iteration,
)
from repro.gradients import GradientCapture
from repro.harness.configs import get_benchmark
from repro.nn import build_model
from tests.synthetic import make_blobs_classification


def _dataset(seed=0):
    return make_blobs_classification(num_examples=128, num_features=16, num_classes=4, seed=seed)


def _model(seed=1):
    return build_model("mlp", input_dim=16, hidden_dims=(32,), num_classes=4, seed=seed)


def _config(**kwargs):
    """A small TrainerConfig; knob kwargs are routed into its ``knobs`` bundle."""
    knobs = {name: kwargs.pop(name) for name in KNOB_FIELDS if name in kwargs}
    defaults = dict(num_workers=4, batch_size=8, iterations=30, ratio=0.01, lr=0.05, seed=0, compute_seconds=0.01)
    defaults.update(kwargs)
    return TrainerConfig(**defaults, knobs=SimulationKnobs(**knobs))


class TestTrainingLoop:
    def test_loss_decreases_with_compression(self):
        trainer = DistributedTrainer(_model(), _dataset(), "sidco-e", _config())
        result = trainer.run(evaluate_on=_dataset())
        losses = result.metrics.losses
        assert losses[-5:].mean() < losses[:5].mean()
        assert result.final_evaluation["accuracy"] > 0.5

    def test_metrics_recorded_every_iteration(self):
        result = DistributedTrainer(_model(), _dataset(), "topk", _config(iterations=12)).run()
        assert len(result.metrics.records) == 12
        assert result.metrics.total_time > 0.0

    def test_baseline_matches_target_ratio_one(self):
        result = DistributedTrainer(_model(), _dataset(), "none", _config()).run()
        assert np.allclose(result.metrics.achieved_ratios, 1.0)

    def test_warmup_iterations_uncompressed(self):
        config = _config(iterations=10, warmup_iterations=4, ratio=0.001)
        result = DistributedTrainer(_model(), _dataset(), "topk", config).run()
        ratios = result.metrics.achieved_ratios
        assert np.allclose(ratios[:4], 1.0)
        assert np.all(ratios[4:] < 0.01)

    @pytest.mark.parametrize(
        "compressor, warmup", [("none", 0), ("topk", 3)], ids=["baseline", "warmup"]
    )
    def test_faulted_dense_iterations_price_the_straggler(self, compressor, warmup):
        # Baseline and warm-up iterations price the dense all-reduce; under a
        # straggler each record must be the sync policy over the scaled
        # baseline timings, not the nominal one.
        config = _config(iterations=3, warmup_iterations=warmup, straggler_severity=2.0)
        trainer = DistributedTrainer(_model(), _dataset(), compressor, config)
        records = trainer.run().metrics.records
        timeline = trainer.timeline

        def price(compute_scale, comm_scale):
            return timeline.baseline_iteration(
                compute_scale=compute_scale, comm_scale=comm_scale
            ).total

        for record in records:
            rates = trainer.fault_model.rates_for_iteration(record.iteration)
            expected = price_iteration(price, rates, trainer.sync_policy).iteration_seconds
            assert record.iteration_time == expected
            assert record.iteration_time > timeline.baseline_iteration().total
            assert record.achieved_ratio == 1.0

    def test_capture_hook_receives_gradients(self):
        capture = GradientCapture(iterations={2, 5}, normalize=False)
        config = _config(iterations=8)
        DistributedTrainer(_model(), _dataset(), "topk", config, capture=capture).run()
        assert sorted(capture.snapshots) == [2, 5]
        assert capture.snapshots[2].size == _model().num_parameters()

    def test_records_carry_the_optimizer_learning_rate(self):
        config = _config(iterations=4, lr=0.05)
        result = DistributedTrainer(_model(), _dataset(), "topk", config).run()
        assert [r.learning_rate for r in result.metrics.records] == [0.05] * 4
        trainer = DistributedTrainer(_model(), _dataset(), "topk", config)
        trainer.optimizer.lr = 0.2
        assert [r.learning_rate for r in trainer.run().metrics.records] == [0.2] * 4

    def test_compression_reduces_communication_time(self):
        config = _config(iterations=10, ratio=0.001, dimension_scale=100.0)
        compressed = DistributedTrainer(_model(), _dataset(), "sidco-e", config).run()
        baseline = DistributedTrainer(_model(), _dataset(), "none", config).run()
        assert (
            compressed.metrics.component_breakdown()["communication"]
            < baseline.metrics.component_breakdown()["communication"]
        )

    def test_error_feedback_improves_aggressive_compression(self):
        # With EC off and very aggressive compression the model learns slower.
        config_ec = _config(iterations=60, ratio=0.005, use_error_feedback=True, seed=3)
        config_no = _config(iterations=60, ratio=0.005, use_error_feedback=False, seed=3)
        with_ec = DistributedTrainer(_model(seed=5), _dataset(3), "topk", config_ec).run()
        without = DistributedTrainer(_model(seed=5), _dataset(3), "topk", config_no).run()
        assert with_ec.metrics.final_loss <= without.metrics.final_loss + 0.05

    def test_estimation_quality_close_to_one_for_topk(self):
        result = DistributedTrainer(_model(), _dataset(), "topk", _config()).run()
        mean, _ = result.metrics.estimation_quality()
        assert 0.8 < mean < 1.2


class TestHelpers:
    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            TrainerConfig(num_workers=0)
        with pytest.raises(ValueError):
            TrainerConfig(ratio=0.0)
        with pytest.raises(ValueError):
            TrainerConfig(iterations=0)
        with pytest.raises(ValueError):
            TrainerConfig(warmup_iterations=-1)
        with pytest.raises(ValueError):
            _config(bucket_bytes=0)
        # Non-finite compute time would price every iteration as NaN/inf.
        for bad in (float("nan"), float("inf"), -0.01):
            with pytest.raises(ValueError, match="compute_seconds"):
                TrainerConfig(compute_seconds=bad)


#: Per knob: a non-default bundle (plus the companions its validation needs)
#: and a probe reading the value back from the trainer component it drives.
KNOB_PROBES = {
    "bucket_bytes": (
        dict(bucket_bytes=512),
        lambda t: {getattr(w.compressor, "bucket_bytes", None) for w in t.workers} == {512},
    ),
    "overlap": (dict(overlap="comm"), lambda t: t.timeline.overlap == "comm"),
    "topology": (
        dict(topology="cluster1"),
        lambda t: t.collective.topology.name == "cluster1-ethernet-10g",
    ),
    "allreduce_algorithm": (
        dict(allreduce_algorithm="recursive-doubling"),
        lambda t: t.collective.allreduce_algorithm == "recursive-doubling",
    ),
    "allgather_algorithm": (
        dict(allgather_algorithm="recursive-doubling"),
        lambda t: t.collective.allgather_algorithm == "recursive-doubling",
    ),
    "pipeline_chunks": (dict(pipeline_chunks=4), lambda t: t.collective.pipeline_chunks == 4),
    "dedup_assumption": (
        dict(dedup_assumption="identical"),
        lambda t: getattr(t.collective.allgather_dedup, "assumption", None) == "identical",
    ),
    "cross_bucket_pipeline": (
        dict(cross_bucket_pipeline=True),
        lambda t: t.timeline.cross_bucket_pipeline is True,
    ),
    "sync_policy": (dict(sync_policy="time-window"), lambda t: t.sync_policy.name == "time-window"),
    "backup_workers": (
        dict(sync_policy="backup-workers", backup_workers=2),
        lambda t: getattr(t.sync_policy, "backup_workers", None) == 2,
    ),
    "time_window_factor": (
        dict(sync_policy="time-window", time_window_factor=2.5),
        lambda t: getattr(t.sync_policy, "window_factor", None) == 2.5,
    ),
    "straggler_severity": (
        dict(straggler_severity=3.0),
        lambda t: t.fault_model is not None and t.fault_model.profile.workers[0].compute == 3.0,
    ),
    "link_degradation": (
        dict(link_degradation=2.0),
        lambda t: t.fault_model is not None and t.fault_model.profile.workers[0].link == 2.0,
    ),
}


#: Knobs kept only so existing bundles and sweep records keep their keys.
INERT_KNOBS = {"scheduler_backend": ("loop", "vectorized")}


class TestKnobBundleThreading:
    def test_every_knob_has_a_probe(self):
        assert tuple(k for k in KNOB_FIELDS if k not in INERT_KNOBS) == tuple(KNOB_PROBES)

    @pytest.mark.parametrize("knob", list(KNOB_PROBES))
    def test_knob_reaches_the_component_it_drives(self, knob):
        # The trainer reads every knob from config.knobs; a reader left on a
        # removed flat field, or one that ignores the bundle, fails here.
        overrides, probe = KNOB_PROBES[knob]
        config = _config(num_workers=8, **overrides)
        assert not probe(DistributedTrainer(_model(), _dataset(), "topk", _config(num_workers=8)))
        assert probe(DistributedTrainer(_model(), _dataset(), "topk", config))

    @pytest.mark.parametrize("knob", list(INERT_KNOBS))
    def test_inert_knob_values_price_identical_runs(self, knob):
        # Every accepted value must give the same records, bit for bit, on a
        # run that actually schedules buckets.
        bundle = dict(bucket_bytes=512, overlap="comm+compress", topology="torus-2d",
                      allgather_algorithm="hierarchical", cross_bucket_pipeline=True,
                      straggler_severity=2.0)
        records = [
            DistributedTrainer(
                _model(), _dataset(), "topk",
                _config(num_workers=16, iterations=4, **bundle, **{knob: value}),
            ).run().metrics.records
            for value in INERT_KNOBS[knob]
        ]
        assert records[0] == records[1]


class TestBucketedPipeline:
    def test_bucket_bytes_wraps_worker_compressors(self):
        from repro.pipeline import CompressionPipeline

        trainer = DistributedTrainer(_model(), _dataset(), "sidco-e", _config(bucket_bytes=512))
        assert all(isinstance(w.compressor, CompressionPipeline) for w in trainer.workers)
        assert trainer.compressor_name == "sidco-e-bucketed"
        result = trainer.run()
        assert len(result.metrics.records) == 30
        assert result.metrics.final_loss < result.metrics.records[0].loss

    @pytest.mark.parametrize("variant", SIDCO_VARIANTS)
    def test_prebuilt_pipeline_and_bucket_bytes_rejected(self, variant):
        # Two bucket sizes for one run: the trainer must not pick one by
        # overwriting the caller's pipeline.
        from repro.pipeline import CompressionPipeline

        pipeline = CompressionPipeline(create_compressor(variant), bucket_bytes=1024)
        with pytest.raises(ValueError, match="already a CompressionPipeline"):
            DistributedTrainer(_model(), _dataset(), pipeline, _config(bucket_bytes=512))
        assert pipeline.bucket_bytes == 1024 and pipeline.flat_spec is None

    @pytest.mark.parametrize("variant", SIDCO_VARIANTS)
    def test_prebuilt_pipeline_trains_at_its_own_bucket_size(self, variant):
        from repro.pipeline import CompressionPipeline

        pipeline = CompressionPipeline(create_compressor(variant), bucket_bytes=512)
        trainer = DistributedTrainer(_model(), _dataset(), pipeline, _config(num_workers=1, iterations=5))
        assert trainer.workers[0].compressor is pipeline
        assert trainer.compressor_name == f"{variant}-bucketed"
        result = trainer.run()
        assert all(r.achieved_ratio < 1.0 for r in result.metrics.records)

    def test_baseline_is_never_bucketed(self):
        trainer = DistributedTrainer(_model(), _dataset(), "none", _config(bucket_bytes=512))
        assert trainer.is_baseline
        assert trainer.compressor_name == "none"

    def test_bucketed_training_matches_unbucketed_loss_closely(self):
        # Per-bucket thresholds change *which* elements ship, but training
        # still converges to a comparable loss.
        plain = DistributedTrainer(_model(seed=7), _dataset(1), "sidco-e", _config(seed=1)).run()
        bucketed = DistributedTrainer(
            _model(seed=7), _dataset(1), "sidco-e", _config(seed=1, bucket_bytes=2048)
        ).run()
        assert bucketed.metrics.final_loss < plain.metrics.final_loss * 1.25 + 0.05

    def test_bucketed_communication_time_accounts_per_bucket_latency(self):
        plain = DistributedTrainer(_model(), _dataset(), "topk", _config(seed=2)).run()
        bucketed = DistributedTrainer(
            _model(), _dataset(), "topk", _config(seed=2, bucket_bytes=512)
        ).run()
        # Same payload split across many all-gathers pays extra per-message
        # latency, so bucketed communication is >= the single-shot pricing.
        assert (
            bucketed.metrics.records[-1].communication_time
            >= plain.metrics.records[-1].communication_time
        )

    def test_layer_aware_buckets_snap_to_model_layers(self):
        trainer = DistributedTrainer(_model(), _dataset(), "topk", _config(bucket_bytes=512))
        worker = trainer.workers[0]
        assert worker.compressor.flat_spec is not None
        layout = worker.compressor.layout_for(worker.flat_spec.total_size)
        assert not layout.is_uniform
        slot_offsets = {slot.offset for slot in worker.flat_spec.slots}
        capacity = layout.bucket_size
        for boundary in layout.boundaries:
            # Every cut is a layer boundary, or a budget-sized cut inside an
            # oversized layer.
            in_oversized = any(
                s.offset < boundary < s.offset + s.size
                for s in worker.flat_spec.slots
                if s.size > capacity
            )
            assert boundary in slot_offsets or in_oversized

    def test_layer_aware_buckets_can_be_disabled(self):
        trainer = DistributedTrainer(
            _model(), _dataset(), "topk", _config(bucket_bytes=512, layer_aware_buckets=False)
        )
        worker = trainer.workers[0]
        assert worker.compressor.flat_spec is None
        assert worker.compressor.layout_for(worker.flat_spec.total_size).is_uniform


class TestOverlapPolicy:
    def test_invalid_overlap_rejected(self):
        with pytest.raises(ValueError):
            _config(overlap="pipelined")

    def test_overlap_reduces_wall_time_not_loss(self):
        serial = DistributedTrainer(
            _model(seed=5), _dataset(3), "topk", _config(seed=3, bucket_bytes=512)
        ).run()
        overlapped = DistributedTrainer(
            _model(seed=5), _dataset(3), "topk",
            _config(seed=3, bucket_bytes=512, overlap="comm+compress"),
        ).run()
        # Identical training math: the schedule only reprices time.
        np.testing.assert_allclose(overlapped.metrics.losses, serial.metrics.losses)
        assert overlapped.metrics.total_time < serial.metrics.total_time
        # The serialised-equivalent time of the overlapped run matches the
        # serial run's actual time.
        assert overlapped.metrics.serialized_total_time == pytest.approx(
            serial.metrics.total_time
        )
        summary = overlapped.metrics.overlap_summary()
        assert 0.0 < summary["overlap_saving"] < 1.0

    def test_overlap_noop_without_buckets(self):
        serial = DistributedTrainer(_model(), _dataset(), "topk", _config(seed=4)).run()
        overlapped = DistributedTrainer(
            _model(), _dataset(), "topk", _config(seed=4, overlap="comm+compress")
        ).run()
        assert overlapped.metrics.total_time == pytest.approx(serial.metrics.total_time)
        assert overlapped.metrics.overlap_summary()["overlap_saving"] == pytest.approx(0.0)


class TestTopologyThreading:
    """Cluster topology + collective-algorithm choices threaded end to end."""

    def _two_level(self):
        from repro.distributed import ClusterTopology
        from repro.distributed.network import CLUSTER_ETHERNET_10G, NODE_INFINIBAND_100G

        return ClusterTopology(
            num_nodes=2,
            devices_per_node=2,
            inter_node=CLUSTER_ETHERNET_10G,
            intra_node=NODE_INFINIBAND_100G,
            name="test-2x2",
        )

    def test_invalid_algorithm_rejected_at_config_time(self):
        with pytest.raises(ValueError):
            _config(allgather_algorithm="ring-allreduce")
        with pytest.raises(ValueError):
            _config(allreduce_algorithm="nccl")

    def test_topology_worker_mismatch_rejected_at_config_time(self):
        with pytest.raises(ValueError, match="workers"):
            _config(num_workers=8, topology=self._two_level())  # 4 workers

    def test_unknown_preset_rejected_at_config_time(self):
        with pytest.raises(ValueError, match="unknown topology"):
            _config(num_workers=8, topology="cluster99")

    def test_preset_resolved_by_name(self):
        from repro.distributed import get_topology
        from repro.distributed.network import CLUSTER_ETHERNET_10G

        config = _config(num_workers=8, topology="cluster1")
        assert config.resolve_topology(CLUSTER_ETHERNET_10G) is get_topology("cluster1")

    def test_default_topology_is_flat_over_network(self):
        from repro.distributed.network import CLUSTER_ETHERNET_10G

        topo = _config(num_workers=4).resolve_topology(CLUSTER_ETHERNET_10G)
        assert topo.is_single_level
        assert topo.num_workers == 4
        assert topo.bottleneck_link is CLUSTER_ETHERNET_10G

    def test_trainer_wires_collective_into_timeline(self):
        config = _config(topology=self._two_level(), allgather_algorithm="hierarchical")
        trainer = DistributedTrainer(_model(), _dataset(), "topk", config)
        assert trainer.collective.topology.name == "test-2x2"
        assert trainer.timeline.collective is trainer.collective

    def test_hierarchical_topology_run_prices_cheaper_iterations(self):
        flat = DistributedTrainer(
            _model(seed=7), _dataset(5), "topk",
            _config(seed=5, topology=self._two_level(), allgather_algorithm="flat-allgather"),
        ).run()
        hier = DistributedTrainer(
            _model(seed=7), _dataset(5), "topk",
            _config(seed=5, topology=self._two_level(), allgather_algorithm="hierarchical"),
        ).run()
        # Identical training math; only the communication pricing changes.
        np.testing.assert_allclose(hier.metrics.losses, flat.metrics.losses)
        assert hier.metrics.total_time < flat.metrics.total_time

    def test_flat_topology_run_matches_default_exactly(self):
        from repro.distributed import ClusterTopology
        from repro.distributed.network import CLUSTER_ETHERNET_10G

        default = DistributedTrainer(_model(), _dataset(), "topk", _config(seed=6)).run()
        flat = DistributedTrainer(
            _model(), _dataset(), "topk",
            _config(seed=6, topology=ClusterTopology.flat(CLUSTER_ETHERNET_10G, 4)),
        ).run()
        assert flat.metrics.total_time == default.metrics.total_time


class TestDedupPipelineThreading:
    """pipeline_chunks / dedup_assumption threaded config -> collective -> metrics."""

    def _two_level(self):
        from repro.distributed import ClusterTopology
        from repro.distributed.network import CLUSTER_ETHERNET_10G, NODE_INFINIBAND_100G

        return ClusterTopology(
            num_nodes=2,
            devices_per_node=2,
            inter_node=CLUSTER_ETHERNET_10G,
            intra_node=NODE_INFINIBAND_100G,
            name="test-2x2",
        )

    def test_invalid_knobs_rejected_at_config_time(self):
        with pytest.raises(ValueError, match="pipeline_chunks"):
            _config(pipeline_chunks=0)
        with pytest.raises(ValueError, match="unknown dedup assumption"):
            _config(dedup_assumption="correlated")

    def test_trainer_builds_dedup_and_pipelined_collective(self):
        config = _config(
            topology=self._two_level(),
            allgather_algorithm="hierarchical",
            pipeline_chunks=4,
            dedup_assumption="uniform",
        )
        trainer = DistributedTrainer(_model(), _dataset(), "topk", config)
        assert trainer.collective.pipeline_chunks == 4
        assert trainer.collective.allgather_dedup.assumption == "uniform"

    def test_dedup_run_prices_cheaper_and_records_achieved_ratio(self):
        base = dict(
            seed=5, ratio=0.1, iterations=10,
            topology=self._two_level(), allgather_algorithm="hierarchical",
        )
        plain = DistributedTrainer(
            _model(seed=7), _dataset(5), "topk", _config(**base)
        ).run()
        deduped = DistributedTrainer(
            _model(seed=7), _dataset(5), "topk",
            _config(**base, dedup_assumption="uniform"),
        ).run()
        # Dedup only reprices the wire: identical training math, lower cost.
        np.testing.assert_allclose(deduped.metrics.losses, plain.metrics.losses)
        assert deduped.metrics.total_time < plain.metrics.total_time
        assert deduped.metrics.mean_dedup_ratio() > 1.0
        assert plain.metrics.mean_dedup_ratio() == 1.0
        assert all(r.dedup_ratio > 1.0 for r in deduped.metrics.records)

    def test_knobs_off_match_pr3_run_exactly(self):
        base = dict(seed=6, topology=self._two_level(), allgather_algorithm="hierarchical")
        default = DistributedTrainer(_model(), _dataset(), "topk", _config(**base)).run()
        knobs_off = DistributedTrainer(
            _model(), _dataset(), "topk",
            _config(**base, pipeline_chunks=1, dedup_assumption=None),
        ).run()
        assert knobs_off.metrics.total_time == default.metrics.total_time


class TestCrossBucketThreading:
    """cross_bucket_pipeline threaded config -> timeline -> run metrics."""

    def _two_level(self):
        from repro.distributed import ClusterTopology
        from repro.distributed.network import CLUSTER_ETHERNET_10G, CLUSTER_ETHERNET_25G

        return ClusterTopology(
            num_nodes=2,
            devices_per_node=2,
            inter_node=CLUSTER_ETHERNET_10G,
            intra_node=CLUSTER_ETHERNET_25G,
            name="test-2x2-torus",
        )

    def test_invalid_flag_rejected_at_config_time(self):
        with pytest.raises(ValueError, match="cross_bucket_pipeline"):
            _config(cross_bucket_pipeline="yes")

    def test_trainer_threads_flag_into_timeline(self):
        config = _config(
            topology=self._two_level(),
            allgather_algorithm="hierarchical",
            overlap="comm",
            cross_bucket_pipeline=True,
        )
        trainer = DistributedTrainer(_model(), _dataset(), "topk", config)
        assert trainer.timeline.cross_bucket_pipeline

    def test_cross_bucket_run_no_slower_and_same_serialized_time(self):
        base = dict(
            seed=5, ratio=0.1, iterations=8, overlap="comm",
            topology=self._two_level(), allgather_algorithm="hierarchical",
            dimension_scale=2000.0, bucket_bytes=512,
        )
        serial = DistributedTrainer(
            _model(seed=7), _dataset(5), "topk", _config(**base)
        ).run()
        cross = DistributedTrainer(
            _model(seed=7), _dataset(5), "topk",
            _config(**base, cross_bucket_pipeline=True),
        ).run()
        assert cross.metrics.total_time < serial.metrics.total_time
        # The flat component sum is scheduling-invariant.
        assert cross.metrics.serialized_total_time == pytest.approx(
            serial.metrics.serialized_total_time
        )
        assert cross.config.knobs.cross_bucket_pipeline


class TestWorkerGroups:
    """Stacked worker groups train exactly as one pass per worker.

    The recurrent proxies stack up to ``worker_group`` (8) workers per pass;
    forcing groups of one on the same model must give identical records.
    The shards (39 or 41 examples over 6 workers, batch 5) end their epochs
    at different iterations, so one iteration mixes batch shapes and the
    groups split on them.
    """

    @staticmethod
    def _run(proxy, worker_group, **kwargs):
        config = get_benchmark(proxy)
        if proxy == "lstm-ptb":
            dataset = make_language_modeling(num_sequences=39, seq_len=8, vocab_size=64, seed=0)
        else:
            dataset = make_sequence_classification(41, 8, seq_len=8, num_features=12, seed=0)
        model = config.build_proxy_model(seed=1)
        model.worker_group = worker_group
        trainer_config = _config(
            num_workers=6, batch_size=5, iterations=14, lr=config.proxy_lr,
            clip_norm=config.proxy_clip_norm, **kwargs,
        )
        return DistributedTrainer(model, dataset, "sidco-e", trainer_config).run(evaluate_on=dataset)

    @pytest.mark.parametrize("proxy", ["lstm-ptb", "lstm-an4"])
    @pytest.mark.parametrize(
        "scenario",
        [
            {},
            {"warmup_iterations": 5},
            {"fault_injectors": (WorkerChurn(leave_probability=0.3, rejoin_probability=0.5, seed=4),)},
        ],
        ids=["ragged", "warmup", "churn"],
    )
    def test_groups_of_eight_equal_groups_of_one(self, proxy, scenario):
        grouped = self._run(proxy, 8, **scenario)
        single = self._run(proxy, 1, **scenario)
        assert grouped.metrics.records == single.metrics.records
        assert grouped.final_evaluation == single.final_evaluation
        if "fault_injectors" in scenario:
            active = {r.participating_workers for r in grouped.metrics.records}
            assert len(active) > 1  # churn really changed the groups

    def test_non_finite_parameter_fails_the_iteration(self):
        model = _model()
        trainer = DistributedTrainer(model, _dataset(), "topk", _config(iterations=3))
        model.parameters()[0].data.flat[0] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(
            ValueError, match="worker 0 produced a non-finite loss or gradient at iteration 0"
        ):
            trainer.run()
