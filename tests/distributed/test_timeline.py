"""Tests for the iteration-time model."""

import math
import warnings

import pytest

from repro.compressors import create_compressor
from repro.distributed import (
    ClusterTopology,
    CollectiveModel,
    NetworkModel,
    SparseAggregateModel,
    TimelineModel,
    compute_time_for_overhead,
)
from repro.gradients import realistic_gradient
from repro.perfmodel import GPU_V100
from tests.schedule_checks import check_schedule, phase_rows


def _timeline(compute=0.01, workers=8, dim=1_000_000, scale=1.0, efficiency=1.0):
    return TimelineModel(
        network=NetworkModel(bandwidth_gbps=10.0, latency_s=1e-5, efficiency=efficiency),
        device=GPU_V100,
        compute_seconds=compute,
        num_workers=workers,
        model_dimension=dim,
        dimension_scale=scale,
    )


class TestBaseline:
    def test_components_positive(self):
        timing = _timeline().baseline_iteration()
        assert timing.compute == pytest.approx(0.01)
        assert timing.compression == 0.0
        assert timing.communication > 0.0
        assert timing.total == pytest.approx(timing.compute + timing.communication)

    def test_communication_overhead_fraction(self):
        timeline = _timeline(compute=0.0)
        assert timeline.communication_overhead_fraction() == pytest.approx(1.0)

    def test_dimension_scale_multiplies_volume(self):
        def comm(scale):
            return TimelineModel(
                network=NetworkModel(bandwidth_gbps=10.0, latency_s=0.0, efficiency=1.0),
                device=GPU_V100,
                compute_seconds=0.0,
                num_workers=8,
                model_dimension=1_000_000,
                dimension_scale=scale,
            ).baseline_iteration().communication

        assert comm(10.0) == pytest.approx(10 * comm(1.0), rel=0.01)


class TestCompressedIteration:
    def test_compression_and_sparse_comm_accounted(self):
        gradient = realistic_gradient(100_000, seed=0)
        results = [create_compressor("topk").compress(gradient, 0.01) for _ in range(2)]
        timing = _timeline(dim=100_000).compressed_iteration(results)
        assert timing.compression > 0.0
        assert timing.communication > 0.0

    def test_compressed_faster_than_baseline_for_large_model(self):
        gradient = realistic_gradient(100_000, seed=0)
        results = [create_compressor("sidco-e").compress(gradient, 0.001)]
        timeline = _timeline(compute=0.001, dim=100_000, scale=150.0)
        assert timeline.compressed_iteration(results).total < timeline.baseline_iteration().total

    def test_empty_worker_results_rejected(self):
        with pytest.raises(ValueError):
            _timeline().compressed_iteration([])

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            TimelineModel(NetworkModel(), GPU_V100, compute_seconds=-1.0, num_workers=2, model_dimension=10)
        with pytest.raises(ValueError):
            TimelineModel(NetworkModel(), GPU_V100, compute_seconds=0.0, num_workers=0, model_dimension=10)
        with pytest.raises(ValueError):
            TimelineModel(NetworkModel(), GPU_V100, compute_seconds=0.0, num_workers=2, model_dimension=10, dimension_scale=0.0)
        # Non-finite times would price every iteration as NaN/inf.
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="compute_seconds"):
                TimelineModel(NetworkModel(), GPU_V100, compute_seconds=bad, num_workers=2, model_dimension=10)
            with pytest.raises(ValueError, match="update_seconds"):
                TimelineModel(NetworkModel(), GPU_V100, compute_seconds=0.0, num_workers=2, model_dimension=10, update_seconds=bad)
            with pytest.raises(ValueError, match="dimension_scale"):
                TimelineModel(NetworkModel(), GPU_V100, compute_seconds=0.0, num_workers=2, model_dimension=10, dimension_scale=bad)


class TestComputeTimeForOverhead:
    def test_roundtrip_through_timeline(self):
        network = NetworkModel(bandwidth_gbps=10.0, latency_s=0.0, efficiency=1.0)
        dim = 25_000_000
        compute = compute_time_for_overhead(network, 8, dim, 0.72)
        timeline = TimelineModel(network, GPU_V100, compute, 8, dim)
        assert timeline.communication_overhead_fraction() == pytest.approx(0.72, rel=1e-6)

    def test_higher_overhead_means_less_compute(self):
        network = NetworkModel()
        low = compute_time_for_overhead(network, 8, 10_000_000, 0.5)
        high = compute_time_for_overhead(network, 8, 10_000_000, 0.9)
        assert high < low

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            compute_time_for_overhead(NetworkModel(), 8, 100, 1.0)


def _price_mixed_worker_pool():
    """Price a mis-assembled (mixed bucketed/unbucketed) worker pool.

    Both tests below call through this one line, so their warnings share a
    location in Python's per-location warning registry.
    """
    from repro.pipeline import CompressionPipeline

    gradient = realistic_gradient(20_000, seed=13)
    bucketed = CompressionPipeline(create_compressor("topk"), bucket_bytes=16_000)
    results = [bucketed.compress(gradient, 0.05), create_compressor("topk").compress(gradient, 0.05)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        assert _timeline(workers=2).bucket_communication_times(results) is None
    return [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestFallbackWarningCarriesNoProcessState:
    """The same misconfiguration warns again in the next test, with no reset hook."""

    def test_first_test_sees_the_warning(self):
        assert len(_price_mixed_worker_pool()) == 1

    def test_next_test_sees_it_again(self):
        assert len(_price_mixed_worker_pool()) == 1


class TestBucketedCommunication:
    """Per-bucket communication pricing for pipeline compression results."""

    def _bucketed_results(self, num_workers=2):
        from repro.pipeline import CompressionPipeline

        gradient = realistic_gradient(20_000, seed=13)
        pipeline = CompressionPipeline(create_compressor("topk"), bucket_bytes=16_000)
        return [pipeline.compress(gradient, 0.05) for _ in range(num_workers)]

    def test_bucket_times_returned_per_bucket(self):
        timeline = _timeline(workers=2)
        results = self._bucketed_results()
        times = timeline.bucket_communication_times(results)
        assert times is not None
        assert len(times) == results[0].metadata["num_buckets"]
        assert all(t > 0.0 for t in times)

    def test_compressed_iteration_sums_bucket_times(self):
        timeline = _timeline(workers=2)
        results = self._bucketed_results()
        timing = timeline.compressed_iteration(results)
        times = timeline.bucket_communication_times(results)
        assert timing.communication == pytest.approx(sum(times))

    def test_unbucketed_results_fall_back_to_single_payload(self, recwarn):
        timeline = _timeline(workers=2)
        gradient = realistic_gradient(20_000, seed=13)
        results = [create_compressor("topk").compress(gradient, 0.05) for _ in range(2)]
        assert timeline.bucket_communication_times(results) is None
        timing = timeline.compressed_iteration(results)
        payload = max(r.sparse.payload_bytes() for r in results)
        assert timing.communication == pytest.approx(
            timeline.network.allgather_time(payload, 2)
        )
        # Uniformly unbucketed workers are the normal plain-compressor path,
        # not an inconsistency: no warning.
        assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)]

    def _mixed_results(self):
        bucketed = self._bucketed_results()[0]
        plain = create_compressor("topk").compress(realistic_gradient(20_000, seed=13), 0.05)
        return [bucketed, plain]

    def test_mixed_results_fall_back_with_warning(self):
        timeline = _timeline(workers=2)
        with pytest.warns(RuntimeWarning, match="single-payload"):
            assert timeline.bucket_communication_times(self._mixed_results()) is None
        # Every pricing entry point reports the fallback and prices one payload.
        with pytest.warns(RuntimeWarning, match="single-payload"):
            timing = timeline.compressed_iteration(self._mixed_results(), overlap="comm")
        assert timing.schedule is None

    def test_repeated_fallback_shows_once_per_calling_location(self):
        # Python's warning registry, not module state, keeps a long training
        # run from repeating the warning every iteration.
        timeline = _timeline(workers=2)
        results = self._mixed_results()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            for _ in range(3):
                timeline.compressed_iteration(results)
        assert len([w for w in caught if issubclass(w.category, RuntimeWarning)]) == 1
        assert caught[0].filename == __file__  # attributed to the caller

    def test_mismatched_bucket_counts_fall_back_with_warning(self):
        from repro.pipeline import CompressionPipeline

        timeline = _timeline(workers=2)
        gradient = realistic_gradient(20_000, seed=13)
        coarse = CompressionPipeline(create_compressor("topk"), bucket_bytes=16_000)
        fine = CompressionPipeline(create_compressor("topk"), bucket_bytes=8_000)
        results = [coarse.compress(gradient, 0.05), fine.compress(gradient, 0.05)]
        with pytest.warns(RuntimeWarning, match="disagree"):
            assert timeline.bucket_communication_times(results) is None

    def test_each_fallback_category_warns_independently(self):
        # Warning about one misconfiguration must not suppress the warning for
        # a different one later in the same process.
        from repro.pipeline import CompressionPipeline

        timeline = _timeline(workers=2)
        gradient = realistic_gradient(20_000, seed=13)
        bucketed = self._bucketed_results()[0]
        plain = create_compressor("topk").compress(gradient, 0.05)
        with pytest.warns(RuntimeWarning, match="single-payload"):
            timeline.bucket_communication_times([bucketed, plain])
        fine = CompressionPipeline(create_compressor("topk"), bucket_bytes=8_000)
        with pytest.warns(RuntimeWarning, match="disagree"):
            timeline.bucket_communication_times([bucketed, fine.compress(gradient, 0.05)])

    def test_bucketing_pays_per_message_latency(self):
        # Identical total payload, but each bucket's all-gather pays the
        # per-message latency, so bucketed communication costs at least as
        # much as the fused single-shot transfer (the price of enabling
        # overlap, which the model can discount later).
        timeline = _timeline(workers=4)
        results = self._bucketed_results(num_workers=4)
        bucketed_comm = sum(timeline.bucket_communication_times(results))
        payload = max(r.sparse.payload_bytes() for r in results)
        assert bucketed_comm >= timeline.network.allgather_time(payload, 4)

    def test_bucket_times_scale_with_dimension(self):
        results = self._bucketed_results()
        small = _timeline(workers=2, scale=1.0)
        big = _timeline(workers=2, scale=10.0)
        assert sum(big.bucket_communication_times(results)) > sum(
            small.bucket_communication_times(results)
        )


class TestOverlapPolicies:
    """Event-driven overlap-aware pricing of the compressed iteration."""

    def _bucketed_results(self, num_workers=2, bucket_bytes=16_000):
        from repro.pipeline import CompressionPipeline

        gradient = realistic_gradient(20_000, seed=13)
        pipeline = CompressionPipeline(create_compressor("topk"), bucket_bytes=bucket_bytes)
        return [pipeline.compress(gradient, 0.05) for _ in range(num_workers)]

    def test_none_matches_pre_schedule_closed_form(self):
        # The degenerate policy must reproduce the flat component sum the
        # pre-refactor TimelineModel priced, to float tolerance.
        timeline = _timeline(workers=2, dim=20_000, compute=0.02)
        results = self._bucketed_results()
        timing = timeline.compressed_iteration(results, overlap="none")
        compression = max(timeline.device.trace_cost(r.ops) for r in results)
        comm = sum(timeline.bucket_communication_times(results))
        assert timing.schedule is None
        assert timing.total == pytest.approx(timeline.compute_seconds + compression + comm)
        assert timing.total == pytest.approx(timing.serialized)

    def test_overlap_policies_strictly_faster_on_multi_bucket(self):
        timeline = _timeline(workers=2, dim=20_000, compute=0.02)
        results = self._bucketed_results()
        assert results[0].metadata["num_buckets"] > 1
        none = timeline.compressed_iteration(results, overlap="none")
        comm = timeline.compressed_iteration(results, overlap="comm")
        both = timeline.compressed_iteration(results, overlap="comm+compress")
        assert comm.total < none.total
        assert both.total < none.total
        assert both.total <= comm.total
        # Components are policy-independent; only the composition changes.
        for timing in (comm, both):
            assert timing.compression == pytest.approx(none.compression)
            assert timing.communication == pytest.approx(none.communication)
            assert timing.serialized == pytest.approx(none.total)
            assert 0.0 < timing.overlap_saving < 1.0

    def test_schedule_trace_attached_and_consistent(self):
        timeline = _timeline(workers=2, dim=20_000, compute=0.02)
        results = self._bucketed_results()
        timing = timeline.compressed_iteration(results, overlap="comm+compress")
        schedule = timing.schedule
        assert schedule is not None
        assert schedule.policy == "comm+compress"
        assert schedule.num_buckets == results[0].metadata["num_buckets"]
        assert timing.total == pytest.approx(schedule.iteration_seconds)
        assert schedule.total_comm_seconds == pytest.approx(timing.communication)
        assert schedule.total_compress_seconds == pytest.approx(timing.compression)

    def test_instance_default_policy_used(self):
        results = self._bucketed_results()
        base = dict(
            network=NetworkModel(bandwidth_gbps=10.0, latency_s=1e-5, efficiency=1.0),
            device=GPU_V100,
            compute_seconds=0.02,
            num_workers=2,
            model_dimension=20_000,
        )
        serial = TimelineModel(**base)  # default overlap="none"
        overlapped = TimelineModel(**base, overlap="comm+compress")
        assert overlapped.compressed_iteration(results).total < serial.compressed_iteration(results).total

    def test_unbucketed_results_ignore_overlap_policy(self):
        gradient = realistic_gradient(20_000, seed=13)
        results = [create_compressor("topk").compress(gradient, 0.05) for _ in range(2)]
        timeline = _timeline(workers=2, dim=20_000)
        none = timeline.compressed_iteration(results, overlap="none")
        both = timeline.compressed_iteration(results, overlap="comm+compress")
        assert both.schedule is None
        assert both.total == pytest.approx(none.total)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            _timeline().compressed_iteration(self._bucketed_results(), overlap="pipelined")
        with pytest.raises(ValueError):
            TimelineModel(
                NetworkModel(), GPU_V100, compute_seconds=0.0, num_workers=2,
                model_dimension=10, overlap="everything",
            )

    def test_flat_topology_reproduces_default_totals_exactly(self):
        # Acceptance pin: an overlap-enabled timeline with an *explicit*
        # single-level topology and flat-allgather must reproduce the
        # pre-topology IterationTiming.total bit-for-bit under every policy.
        network = NetworkModel(bandwidth_gbps=10.0, latency_s=1e-5, efficiency=1.0)
        base = dict(
            network=network,
            device=GPU_V100,
            compute_seconds=0.02,
            num_workers=2,
            model_dimension=20_000,
        )
        results = self._bucketed_results()
        explicit = CollectiveModel(
            topology=ClusterTopology.flat(network, 2), allgather_algorithm="flat-allgather"
        )
        for policy in ("none", "comm", "comm+compress"):
            default = TimelineModel(**base).compressed_iteration(results, overlap=policy)
            topo = TimelineModel(**base, collective=explicit).compressed_iteration(
                results, overlap=policy
            )
            assert topo.total == default.total
            assert topo.serialized == default.serialized
            assert topo.communication == default.communication
        baseline_default = TimelineModel(**base).baseline_iteration()
        baseline_topo = TimelineModel(**base, collective=explicit).baseline_iteration()
        assert baseline_topo.total == baseline_default.total

    def test_layer_aware_ready_fractions_feed_schedule(self):
        # Layer-aware pipelines record per-bucket ready fractions; the
        # comm+compress schedule must start early buckets before backprop ends.
        from repro.pipeline import CompressionPipeline
        from repro.tensor.flatten import FlatSpec

        spec = FlatSpec.from_named_shapes({f"layer{i}": (50, 40) for i in range(10)})
        gradient = realistic_gradient(spec.total_size, seed=3)
        pipeline = CompressionPipeline(
            create_compressor("topk"), bucket_bytes=4_000 * 8, element_bytes=8, flat_spec=spec
        )
        results = [pipeline.compress(gradient, 0.05) for _ in range(2)]
        assert results[0].metadata["layer_aware"]
        timeline = _timeline(workers=2, dim=spec.total_size, compute=0.05)
        timing = timeline.compressed_iteration(results, overlap="comm+compress")
        assert timing.schedule.compress_start[-1] < timeline.compute_seconds


class TestTopologyAwareTimeline:
    """TimelineModel priced over an explicit CollectiveModel."""

    INTER = NetworkModel(bandwidth_gbps=10.0, latency_s=5e-5, name="inter", efficiency=0.35)
    INTRA = NetworkModel(bandwidth_gbps=100.0, latency_s=5e-6, name="intra", efficiency=0.6)

    def _two_level(self, allgather="hierarchical"):
        topology = ClusterTopology(
            num_nodes=4, devices_per_node=2, inter_node=self.INTER, intra_node=self.INTRA
        )
        return CollectiveModel(topology, allgather_algorithm=allgather)

    def _timeline(self, collective):
        return TimelineModel(
            network=self.INTER,
            device=GPU_V100,
            compute_seconds=0.02,
            num_workers=collective.num_workers,
            model_dimension=20_000,
            collective=collective,
        )

    def _bucketed_results(self, num_workers=2):
        from repro.pipeline import CompressionPipeline

        gradient = realistic_gradient(20_000, seed=13)
        pipeline = CompressionPipeline(create_compressor("topk"), bucket_bytes=16_000)
        return [pipeline.compress(gradient, 0.05) for _ in range(num_workers)]

    def test_worker_count_mismatch_rejected(self):
        collective = self._two_level()  # 8 workers
        with pytest.raises(ValueError, match="workers"):
            TimelineModel(
                network=self.INTER,
                device=GPU_V100,
                compute_seconds=0.0,
                num_workers=4,
                model_dimension=10,
                collective=collective,
            )

    def test_default_collective_is_flat_over_network(self):
        timeline = _timeline(workers=8)
        assert timeline.collective.topology.is_single_level
        assert timeline.collective.topology.num_workers == 8
        assert timeline.collective.allgather_algorithm == "flat-allgather"

    def test_hierarchical_allgather_prices_cheaper_than_flat(self):
        results = self._bucketed_results()
        flat = self._timeline(self._two_level(allgather="flat-allgather"))
        hier = self._timeline(self._two_level(allgather="hierarchical"))
        flat_timing = flat.compressed_iteration(results)
        hier_timing = hier.compressed_iteration(results)
        assert hier_timing.communication < flat_timing.communication
        assert hier_timing.compression == pytest.approx(flat_timing.compression)

    def test_schedule_carries_collective_phases(self):
        results = self._bucketed_results()
        timeline = self._timeline(self._two_level(allgather="hierarchical"))
        schedule = timeline.compressed_iteration(results, overlap="comm").schedule
        assert schedule is not None
        assert schedule.present.all()
        assert schedule.phase_names == ("intra-gather", "inter-allgather", "intra-broadcast")
        assert schedule.phase_start[:, 0].tolist() == schedule.comm_start.tolist()
        assert schedule.phase_end[:, -1].tolist() == schedule.comm_end.tolist()
        # Serial phases carry their fabric too, not just pipelined ones.
        assert schedule.phase_links == ("intra", "inter", "intra")

    def test_flat_allgather_single_phase_span(self):
        results = self._bucketed_results()
        timeline = self._timeline(self._two_level(allgather="flat-allgather"))
        schedule = timeline.compressed_iteration(results, overlap="comm").schedule
        assert schedule.phase_names == ("ring-allgather",)
        assert schedule.present.all()

    def test_baseline_allreduce_uses_collective_topology(self):
        flat = self._timeline(self._two_level(allgather="flat-allgather"))
        # Hierarchical dense all-reduce on a fast intra fabric beats the flat
        # ring gated by the inter-node link.
        hier_collective = CollectiveModel(
            self._two_level().topology, allreduce_algorithm="hierarchical"
        )
        hier = self._timeline(hier_collective)
        assert hier.baseline_iteration().communication < flat.baseline_iteration().communication


class TestDedupAndPipelinedTimeline:
    """Sparse-dedup and chunk-pipelining knobs threaded through TimelineModel."""

    INTER = NetworkModel(bandwidth_gbps=10.0, latency_s=5e-5, name="inter", efficiency=0.35)
    INTRA = NetworkModel(bandwidth_gbps=100.0, latency_s=5e-6, name="intra", efficiency=0.6)

    def _collective(self, **kwargs):
        topology = ClusterTopology(
            num_nodes=4, devices_per_node=2, inter_node=self.INTER, intra_node=self.INTRA
        )
        return CollectiveModel(topology, allgather_algorithm="hierarchical", **kwargs)

    def _timeline(self, collective, compute=0.02, scale=1.0):
        return TimelineModel(
            network=self.INTER,
            device=GPU_V100,
            compute_seconds=compute,
            num_workers=collective.num_workers,
            model_dimension=20_000,
            dimension_scale=scale,
            collective=collective,
        )

    def _bucketed_results(self, num_workers=2, ratio=0.05):
        from repro.pipeline import CompressionPipeline

        gradient = realistic_gradient(20_000, seed=13)
        pipeline = CompressionPipeline(create_compressor("topk"), bucket_bytes=16_000)
        return [pipeline.compress(gradient, ratio) for _ in range(num_workers)]

    def test_dedup_prices_cheaper_and_reports_achieved_ratio(self):
        results = self._bucketed_results()
        plain = self._timeline(self._collective()).compressed_iteration(results)
        deduped = self._timeline(
            self._collective(allgather_dedup=SparseAggregateModel("uniform"))
        ).compressed_iteration(results)
        assert deduped.communication < plain.communication
        assert deduped.dedup_ratio > 1.0
        assert plain.dedup_ratio == 1.0

    def test_density_comes_from_bucket_metadata(self):
        # The per-bucket density the dedup model sees is payload elements over
        # bucket elements, so a denser compression dedups harder per byte.
        sparse = self._bucketed_results(ratio=0.01)
        dense = self._bucketed_results(ratio=0.2)
        timeline = self._timeline(
            self._collective(allgather_dedup=SparseAggregateModel("uniform"))
        )
        assert (
            timeline.compressed_iteration(dense).dedup_ratio
            > timeline.compressed_iteration(sparse).dedup_ratio
        )

    def test_pipelined_timeline_faster_and_schedule_carries_placed_phases(self):
        # Proxy payloads are latency-bound (where chunking rightly falls back
        # to serial), so price them at full-model scale to see the overlap win.
        results = self._bucketed_results()
        serial = self._timeline(self._collective(), scale=1000.0).compressed_iteration(
            results, overlap="comm"
        )
        piped = self._timeline(
            self._collective(pipeline_chunks=4), scale=1000.0
        ).compressed_iteration(results, overlap="comm")
        assert piped.communication < serial.communication
        assert piped.total < serial.total
        phases = phase_rows(check_schedule(piped.schedule))[0]
        assert any(name.endswith("[c0]") for name, _, _, _ in phases)
        assert {link for _, _, _, link in phases} == {"intra", "inter"}
        # Phases on one link never overlap inside the bucket's occupancy.
        by_link = {}
        for _, start, end, link in phases:
            by_link.setdefault(link, []).append((start, end))
        for spans in by_link.values():
            spans.sort()
            assert all(a[1] <= b[0] + 1e-12 for a, b in zip(spans, spans[1:]))

    def test_unbucketed_results_also_dedup_via_sparse_density(self):
        gradient = realistic_gradient(20_000, seed=13)
        results = [create_compressor("topk").compress(gradient, 0.1) for _ in range(2)]
        plain = self._timeline(self._collective()).compressed_iteration(results)
        deduped = self._timeline(
            self._collective(allgather_dedup=SparseAggregateModel("uniform"))
        ).compressed_iteration(results)
        assert deduped.communication < plain.communication
        assert deduped.dedup_ratio > 1.0

    def test_knobs_off_reproduce_pr3_totals_bit_for_bit(self):
        results = self._bucketed_results()
        default = self._timeline(self._collective())
        knobs_off = self._timeline(self._collective(pipeline_chunks=1, allgather_dedup=None))
        for policy in ("none", "comm", "comm+compress"):
            a = default.compressed_iteration(results, overlap=policy)
            b = knobs_off.compressed_iteration(results, overlap=policy)
            assert a.total == b.total
            assert a.communication == b.communication
            assert b.dedup_ratio == 1.0


class TestCrossBucketTimeline:
    """cross_bucket_pipeline threaded TimelineModel -> schedule -> IterationTiming."""

    INTER = NetworkModel(bandwidth_gbps=10.0, latency_s=5e-5, name="inter", efficiency=0.35)
    INTRA = NetworkModel(bandwidth_gbps=25.0, latency_s=3e-5, name="intra", efficiency=0.35)

    def _collective(self, **kwargs):
        topology = ClusterTopology(
            num_nodes=4, devices_per_node=2, inter_node=self.INTER, intra_node=self.INTRA
        )
        return CollectiveModel(topology, allgather_algorithm="hierarchical", **kwargs)

    def _timeline(self, cross=False, compute=0.02, scale=1000.0):
        collective = self._collective()
        return TimelineModel(
            network=self.INTER,
            device=GPU_V100,
            compute_seconds=compute,
            num_workers=collective.num_workers,
            model_dimension=20_000,
            dimension_scale=scale,
            collective=collective,
            cross_bucket_pipeline=cross,
        )

    def _bucketed_results(self, num_workers=2, ratio=0.05):
        from repro.pipeline import CompressionPipeline

        gradient = realistic_gradient(20_000, seed=13)
        pipeline = CompressionPipeline(create_compressor("topk"), bucket_bytes=16_000)
        return [pipeline.compress(gradient, ratio) for _ in range(num_workers)]

    def test_model_default_keeps_serial_lane(self):
        timing = self._timeline().compressed_iteration(self._bucketed_results(), overlap="comm")
        assert not timing.cross_bucket_pipeline
        assert not timing.schedule.cross_bucket

    def test_cross_bucket_faster_never_changes_component_sum(self):
        results = self._bucketed_results()
        serial = self._timeline(cross=False).compressed_iteration(results, overlap="comm")
        cross = self._timeline(cross=True).compressed_iteration(results, overlap="comm")
        # Scheduling moves work between lanes; it never reprices the work.
        assert cross.communication == serial.communication
        assert cross.compression == serial.compression
        assert cross.serialized == serial.serialized
        assert cross.total < serial.total
        assert cross.cross_bucket_pipeline
        assert cross.schedule.cross_bucket
        assert cross.schedule.total_comm_seconds == pytest.approx(
            serial.schedule.total_comm_seconds
        )

    def test_per_call_override_wins_over_model_default(self):
        results = self._bucketed_results()
        model = self._timeline(cross=False)
        overridden = model.compressed_iteration(
            results, overlap="comm", cross_bucket_pipeline=True
        )
        assert overridden.cross_bucket_pipeline
        assert overridden.total == self._timeline(cross=True).compressed_iteration(
            results, overlap="comm"
        ).total

    def test_overlap_none_prices_without_schedule(self):
        timing = self._timeline(cross=True).compressed_iteration(
            self._bucketed_results(), overlap="none"
        )
        assert timing.schedule is None
        assert not timing.cross_bucket_pipeline
        assert timing.total == timing.serialized

    def test_unbucketed_results_report_serial_lane(self):
        gradient = realistic_gradient(20_000, seed=13)
        results = [create_compressor("topk").compress(gradient, 0.1) for _ in range(2)]
        timing = self._timeline(cross=True).compressed_iteration(results, overlap="comm")
        assert timing.schedule is None
        assert not timing.cross_bucket_pipeline

    def test_non_bool_flag_rejected_at_model_construction(self):
        with pytest.raises(ValueError, match="cross_bucket_pipeline"):
            self._timeline(cross=1)

    def test_link_utilization_rises_with_cross_bucket(self):
        results = self._bucketed_results()
        serial = self._timeline(cross=False).compressed_iteration(results, overlap="comm")
        cross = self._timeline(cross=True).compressed_iteration(results, overlap="comm")
        serial_util = serial.schedule.link_utilization()
        cross_util = cross.schedule.link_utilization()
        assert set(cross_util) == {"intra", "inter"}
        for link in cross_util:
            assert cross_util[link]["busy_seconds"] == pytest.approx(
                serial_util[link]["busy_seconds"]
            )
            assert cross_util[link]["utilization"] >= serial_util[link]["utilization"]
