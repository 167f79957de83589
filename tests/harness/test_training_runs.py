"""Integration tests for the benchmark training-run harness (small scale)."""

import pytest

from repro.distributed import SimulationKnobs
from repro.harness import compare_compressors, run_benchmark


class TestRunBenchmark:
    def test_single_run_produces_metrics_and_evaluation(self):
        result = run_benchmark("resnet20-cifar10", "sidco-e", 0.01, num_workers=2, iterations=12, seed=0)
        assert len(result.metrics) == 12
        assert "accuracy" in result.final_evaluation
        assert result.compressor_name == "sidco-e"

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError):
            run_benchmark("alexnet", "topk", 0.01)

    def test_no_knobs_means_the_default_bundle(self):
        kwargs = dict(num_workers=2, iterations=4, seed=0)
        implicit = run_benchmark("resnet20-cifar10", "topk", 0.01, **kwargs)
        explicit = run_benchmark("resnet20-cifar10", "topk", 0.01, knobs=SimulationKnobs(), **kwargs)
        assert implicit.config.knobs == SimulationKnobs()
        assert implicit.metrics.losses.tolist() == explicit.metrics.losses.tolist()
        assert implicit.metrics.total_time == explicit.metrics.total_time

    @pytest.mark.parametrize(
        "knob",
        [
            "bucket_bytes",
            "overlap",
            "topology",
            "allreduce_algorithm",
            "allgather_algorithm",
            "pipeline_chunks",
            "dedup_assumption",
            "cross_bucket_pipeline",
            "scheduler_backend",
        ],
    )
    def test_former_flat_knob_kwargs_fail_loudly(self, knob):
        # These were accepted with a DeprecationWarning until 2.0.0; a caller
        # still passing one must get an error, never a silently default run.
        value = getattr(SimulationKnobs(), knob)
        with pytest.raises(TypeError, match=knob):
            run_benchmark("resnet20-cifar10", "topk", 0.01, **{knob: value})
        with pytest.raises(TypeError, match=knob):
            compare_compressors("resnet20-cifar10", ("topk",), (0.01,), **{knob: value})


class TestCompareCompressors:
    @pytest.fixture(scope="class")
    def comparison(self):
        return compare_compressors(
            "lstm-ptb", ("topk", "sidco-e"), (0.001,), num_workers=2, iterations=25, seed=0
        )

    def test_rows_cover_requested_grid(self, comparison):
        assert {(r.compressor, r.ratio) for r in comparison.rows} == {("topk", 0.001), ("sidco-e", 0.001)}
        assert comparison.baseline.compressor_name == "none"

    def test_compression_beats_baseline_on_comm_bound_benchmark(self, comparison):
        sidco = next(r for r in comparison.rows if r.compressor == "sidco-e")
        assert sidco.throughput_vs_baseline > 2.0
        assert sidco.speedup_vs_baseline > 1.0

    def test_sidco_throughput_at_least_topk(self, comparison):
        sidco = next(r for r in comparison.rows if r.compressor == "sidco-e")
        topk = next(r for r in comparison.rows if r.compressor == "topk")
        assert sidco.throughput_vs_baseline > topk.throughput_vs_baseline

    def test_estimation_quality_ci_ordering(self, comparison):
        for row in comparison.rows:
            low, high = row.estimation_quality_ci
            assert low <= row.estimation_quality <= high


class TestOverlapThreading:
    def test_run_benchmark_threads_overlap_policy(self):
        kwargs = dict(num_workers=2, iterations=8, seed=0)
        bucketed = SimulationKnobs(bucket_bytes=256 * 1024)
        serial = run_benchmark(
            "vgg16-cifar10", "topk", 0.01, knobs=bucketed.replace(overlap="none"), **kwargs
        )
        overlapped = run_benchmark(
            "vgg16-cifar10", "topk", 0.01, knobs=bucketed.replace(overlap="comm+compress"), **kwargs
        )
        assert serial.config.knobs.overlap == "none"
        assert overlapped.config.knobs.overlap == "comm+compress"
        # Same training math, strictly less simulated wall-clock.
        assert overlapped.metrics.total_time < serial.metrics.total_time
        assert overlapped.metrics.serialized_total_time == pytest.approx(
            serial.metrics.total_time, rel=1e-9
        )

    def test_compare_compressors_reports_overlap_columns(self):
        comparison = compare_compressors(
            "resnet20-cifar10",
            ("topk",),
            (0.01,),
            num_workers=2,
            iterations=6,
            seed=0,
            knobs=SimulationKnobs(bucket_bytes=64 * 1024, overlap="comm"),
        )
        row = comparison.rows[0]
        assert row.overlap == "comm"
        assert row.serialized_time >= row.total_time
        assert 0.0 <= row.overlap_saving < 1.0


class TestTopologyThreading:
    def _two_level(self):
        from repro.distributed import ClusterTopology
        from repro.distributed.network import CLUSTER_ETHERNET_10G, NODE_INFINIBAND_100G

        return ClusterTopology(
            num_nodes=2,
            devices_per_node=2,
            inter_node=CLUSTER_ETHERNET_10G,
            intra_node=NODE_INFINIBAND_100G,
            name="harness-2x2",
        )

    def test_topology_fixes_worker_count(self):
        result = run_benchmark(
            "resnet20-cifar10", "topk", 0.01, num_workers=8, iterations=4, seed=0,
            knobs=SimulationKnobs(topology=self._two_level()),
        )
        assert result.config.num_workers == 4
        assert result.config.knobs.topology.name == "harness-2x2"

    def test_preset_topology_by_name(self):
        result = run_benchmark(
            "resnet20-cifar10", "topk", 0.01, iterations=4, seed=0,
            knobs=SimulationKnobs(topology="cluster2"),
        )
        assert result.config.num_workers == 8
        assert result.config.knobs.topology.name == "cluster2-infiniband-100g"

    def test_hierarchical_allgather_speeds_up_two_level_run(self):
        kwargs = dict(iterations=6, seed=0)
        base = SimulationKnobs(topology=self._two_level())
        flat = run_benchmark(
            "vgg16-cifar10", "topk", 0.01,
            knobs=base.replace(allgather_algorithm="flat-allgather"), **kwargs
        )
        hier = run_benchmark(
            "vgg16-cifar10", "topk", 0.01,
            knobs=base.replace(allgather_algorithm="hierarchical"), **kwargs
        )
        assert hier.metrics.total_time < flat.metrics.total_time

    def test_compare_compressors_reports_topology_columns(self):
        comparison = compare_compressors(
            "resnet20-cifar10", ("topk",), (0.01,), iterations=4, seed=0,
            knobs=SimulationKnobs(topology=self._two_level(), allgather_algorithm="hierarchical"),
        )
        row = comparison.rows[0]
        assert row.topology == "harness-2x2"
        assert row.allgather_algorithm == "hierarchical"

    def test_flat_rows_labelled_flat(self):
        comparison = compare_compressors(
            "resnet20-cifar10", ("topk",), (0.01,), num_workers=2, iterations=4, seed=0,
        )
        assert comparison.rows[0].topology == "flat"
        assert comparison.rows[0].allgather_algorithm == "flat-allgather"


class TestDedupPipelineThreading:
    def _two_level(self):
        from repro.distributed import ClusterTopology
        from repro.distributed.network import CLUSTER_ETHERNET_10G, NODE_INFINIBAND_100G

        return ClusterTopology(
            num_nodes=2,
            devices_per_node=2,
            inter_node=CLUSTER_ETHERNET_10G,
            intra_node=NODE_INFINIBAND_100G,
            name="harness-2x2",
        )

    def _hierarchical(self, **overrides):
        return SimulationKnobs(
            topology=self._two_level(), allgather_algorithm="hierarchical", **overrides
        )

    def test_run_benchmark_threads_both_knobs(self):
        result = run_benchmark(
            "resnet20-cifar10", "topk", 0.1, iterations=4, seed=0,
            knobs=self._hierarchical(pipeline_chunks=4, dedup_assumption="uniform"),
        )
        assert result.config.knobs.pipeline_chunks == 4
        assert result.config.knobs.dedup_assumption == "uniform"
        assert result.metrics.mean_dedup_ratio() > 1.0

    def test_dedup_run_is_cheaper_than_plain_hierarchical(self):
        kwargs = dict(iterations=4, seed=0)
        plain = run_benchmark(
            "vgg16-cifar10", "topk", 0.1, knobs=self._hierarchical(), **kwargs
        )
        deduped = run_benchmark(
            "vgg16-cifar10", "topk", 0.1,
            knobs=self._hierarchical(dedup_assumption="uniform"), **kwargs
        )
        assert deduped.metrics.total_time < plain.metrics.total_time

    def test_compare_compressors_reports_dedup_columns(self):
        comparison = compare_compressors(
            "resnet20-cifar10", ("topk",), (0.1,), iterations=4, seed=0,
            knobs=self._hierarchical(pipeline_chunks=2, dedup_assumption="uniform"),
        )
        row = comparison.rows[0]
        assert row.pipeline_chunks == 2
        assert row.dedup_assumption == "uniform"
        assert row.dedup_ratio > 1.0

    def test_default_rows_report_knobs_off(self):
        comparison = compare_compressors(
            "resnet20-cifar10", ("topk",), (0.01,), num_workers=2, iterations=4, seed=0,
        )
        row = comparison.rows[0]
        assert row.pipeline_chunks == 1
        assert row.dedup_assumption == "off"
        assert row.dedup_ratio == 1.0


class TestCrossBucketThreading:
    def _torus(self):
        from repro.distributed import ClusterTopology
        from repro.distributed.network import CLUSTER_ETHERNET_10G, CLUSTER_ETHERNET_25G

        return ClusterTopology(
            num_nodes=2,
            devices_per_node=2,
            inter_node=CLUSTER_ETHERNET_10G,
            intra_node=CLUSTER_ETHERNET_25G,
            name="harness-2x2-torus",
        )

    def _bucketed(self, bucket_bytes, **overrides):
        return SimulationKnobs(
            topology=self._torus(), allgather_algorithm="hierarchical",
            bucket_bytes=bucket_bytes, overlap="comm", **overrides,
        )

    def test_run_benchmark_threads_the_flag(self):
        result = run_benchmark(
            "resnet20-cifar10", "topk", 0.1, iterations=4, seed=0,
            knobs=self._bucketed(64 * 1024, cross_bucket_pipeline=True),
        )
        assert result.config.knobs.cross_bucket_pipeline

    def test_cross_bucket_run_is_no_slower(self):
        kwargs = dict(iterations=4, seed=0)
        serial = run_benchmark(
            "vgg16-cifar10", "topk", 0.1, knobs=self._bucketed(2 * 2**20), **kwargs
        )
        cross = run_benchmark(
            "vgg16-cifar10", "topk", 0.1,
            knobs=self._bucketed(2 * 2**20, cross_bucket_pipeline=True), **kwargs
        )
        assert cross.metrics.total_time <= serial.metrics.total_time
        assert cross.metrics.serialized_total_time == pytest.approx(
            serial.metrics.serialized_total_time
        )

    def test_compare_compressors_reports_the_flag(self):
        comparison = compare_compressors(
            "resnet20-cifar10", ("topk",), (0.1,), iterations=4, seed=0,
            knobs=self._bucketed(64 * 1024, cross_bucket_pipeline=True),
        )
        row = comparison.rows[0]
        assert row.cross_bucket_pipeline
        assert row.topology == "harness-2x2-torus"

    def test_flag_defaults_off_in_rows(self):
        comparison = compare_compressors(
            "resnet20-cifar10", ("topk",), (0.01,), num_workers=2, iterations=4, seed=0,
        )
        assert comparison.rows[0].cross_bucket_pipeline is False
