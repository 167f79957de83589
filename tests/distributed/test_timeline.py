"""Tests for the iteration-time model."""

import inspect
import math
from dataclasses import fields, replace

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


NETWORK = NetworkModel(bandwidth_gbps=10.0, latency_s=1e-5, efficiency=1.0)


def _timeline(compute=0.01, workers=8, dim=1_000_000, scale=1.0, overlap="none"):
    return TimelineModel(
        collective=CollectiveModel.flat(NETWORK, workers),
        device=GPU_V100,
        compute_seconds=compute,
        model_dimension=dim,
        dimension_scale=scale,
        overlap=overlap,
    )


def _priced(timing) -> tuple:
    """An iteration's components and, when scheduled, its per-bucket ends, exactly."""
    ends = None if timing.schedule is None else timing.schedule.comm_end.tolist()
    return (timing.compute, timing.compression, timing.communication, timing.total,
            timing.dedup_ratio, ends)


class TestBaseline:
    def test_components_positive(self):
        timing = _timeline().baseline_iteration()
        assert timing.compute == pytest.approx(0.01)
        assert timing.compression == 0.0
        assert timing.communication > 0.0
        assert timing.total == pytest.approx(timing.compute + timing.communication)

    def test_zero_compute_baseline_is_all_communication(self):
        baseline = _timeline(compute=0.0).baseline_iteration()
        assert baseline.communication == pytest.approx(baseline.total)

    def test_dimension_scale_multiplies_volume(self):
        def comm(scale):
            network = NetworkModel(bandwidth_gbps=10.0, latency_s=0.0, efficiency=1.0)
            return TimelineModel(
                collective=CollectiveModel.flat(network, 8),
                device=GPU_V100,
                compute_seconds=0.0,
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
        pair = CollectiveModel.flat(NetworkModel(), 2)

        def build(**overrides):
            return TimelineModel(
                pair, GPU_V100, **{"compute_seconds": 0.0, "model_dimension": 10, **overrides}
            )

        with pytest.raises(ValueError):
            build(compute_seconds=-1.0)
        with pytest.raises(ValueError):
            CollectiveModel.flat(NetworkModel(), 0)  # no zero-worker fabric to price over
        with pytest.raises(ValueError):
            build(dimension_scale=0.0)
        # Non-finite times would price every iteration as NaN/inf.
        for bad in (math.nan, math.inf):
            for name in ("compute_seconds", "update_seconds", "dimension_scale"):
                with pytest.raises(ValueError, match=name):
                    build(**{name: bad})

    def test_each_input_has_one_source(self):
        # The fabric and worker count come from the collective alone, and the
        # policies from the model alone: no mirrored field, no per-call override.
        names = {f.name for f in fields(TimelineModel)}
        assert "network" not in names and "num_workers" not in names
        assert _timeline(workers=3).num_workers == 3
        for method in (TimelineModel.compressed_iteration, TimelineModel.schedule_iteration):
            parameters = inspect.signature(method).parameters
            assert "overlap" not in parameters and "cross_bucket_pipeline" not in parameters
        with pytest.raises(TypeError):
            _timeline().compressed_iteration([], overlap="comm")
        # A 5.x positional call passes a NetworkModel where the collective goes.
        with pytest.raises(ValueError, match="collective must be a CollectiveModel"):
            TimelineModel(NETWORK, GPU_V100, 0.01, 8, 1000)


class TestComputeTimeForOverhead:
    def test_roundtrip_through_timeline(self):
        network = NetworkModel(bandwidth_gbps=10.0, latency_s=0.0, efficiency=1.0)
        dim = 25_000_000
        compute = compute_time_for_overhead(network, 8, dim, 0.72)
        timeline = TimelineModel(CollectiveModel.flat(network, 8), GPU_V100, compute, dim)
        baseline = timeline.baseline_iteration()
        assert baseline.communication / baseline.total == pytest.approx(0.72, rel=1e-6)

    def test_higher_overhead_means_less_compute(self):
        network = NetworkModel()
        low = compute_time_for_overhead(network, 8, 10_000_000, 0.5)
        high = compute_time_for_overhead(network, 8, 10_000_000, 0.9)
        assert high < low

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            compute_time_for_overhead(NetworkModel(), 8, 100, 1.0)


def _inconsistent_pool(kind):
    """A mis-assembled worker pool and the reason the timeline gives for it."""
    from repro.pipeline import CompressionPipeline

    gradient = realistic_gradient(20_000, seed=13)
    coarse = CompressionPipeline(create_compressor("topk"), bucket_bytes=16_000)
    if kind == "mixed":
        plain = create_compressor("topk").compress(gradient, 0.05)
        return [coarse.compress(gradient, 0.05), plain], "1/2 worker results lack"
    fine = CompressionPipeline(create_compressor("topk"), bucket_bytes=8_000)
    pool = [coarse.compress(gradient, 0.05), fine.compress(gradient, 0.05)]
    return pool, "disagree on the number of buckets"


@pytest.mark.parametrize("kind", ["mixed", "disagree"])
@pytest.mark.parametrize(
    "entry",
    ["price", "compressed_iteration", "schedule_iteration", "lower_bound",
     "bucket_communication_times"],
)
def test_inconsistent_worker_pool_raises_at_every_entry_point(entry, kind):
    # Replicas of one gradient must agree on the bucket structure; a pool that
    # does not is a configuration error, never priced as something else.
    results, reason = _inconsistent_pool(kind)
    timeline = _timeline(workers=2, dim=20_000, overlap="comm")
    with pytest.raises(ValueError, match=reason):
        getattr(timeline, entry)(results)


@pytest.mark.parametrize("num_workers", [2, 6])
def test_price_rejects_rates_for_another_cluster_size(num_workers):
    from repro.distributed import ClusterProfile

    timeline = _timeline(workers=4, dim=20_000)
    results = [create_compressor("topk").compress(realistic_gradient(20_000, seed=13), 0.05)]
    rates = ClusterProfile.degraded(num_workers, compute=2.0).rates()
    with pytest.raises(ValueError, match=f"rates describe {num_workers} workers, not 4"):
        timeline.price(results, rates)
    with pytest.raises(ValueError, match="rates describe"):
        timeline.price(None, rates)
    _, faulted = timeline.price(results, ClusterProfile.degraded(4, compute=2.0).rates())
    assert faulted.outcome.num_participating == 4


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

    def test_unbucketed_results_price_one_payload(self):
        # Uniformly unbucketed workers are the normal plain-compressor path.
        timeline = _timeline(workers=2)
        gradient = realistic_gradient(20_000, seed=13)
        results = [create_compressor("topk").compress(gradient, 0.05) for _ in range(2)]
        timing = timeline.compressed_iteration(results)
        # One bucket: the slowest worker's whole payload.
        assert timeline.bucket_communication_times(results) == [timing.communication]
        payload = max(r.sparse.payload_bytes() for r in results)
        assert timing.communication == pytest.approx(NETWORK.allgather_time(payload, 2))

    def test_bucketing_pays_per_message_latency(self):
        # Identical total payload, but each bucket's all-gather pays the
        # per-message latency, so bucketed communication costs at least as
        # much as the fused single-shot transfer (the price of enabling
        # overlap, which the model can discount later).
        timeline = _timeline(workers=4)
        results = self._bucketed_results(num_workers=4)
        bucketed_comm = sum(timeline.bucket_communication_times(results))
        payload = max(r.sparse.payload_bytes() for r in results)
        assert bucketed_comm >= NETWORK.allgather_time(payload, 4)

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
        timing = timeline.compressed_iteration(results)
        compression = max(timeline.device.trace_cost(r.ops) for r in results)
        comm = sum(timeline.bucket_communication_times(results))
        assert timing.schedule is None
        assert timing.total == pytest.approx(timeline.compute_seconds + compression + comm)
        assert timing.total == pytest.approx(timing.serialized)

    def test_lower_bound_from_the_phase_table(self):
        timeline = _timeline(workers=2, dim=20_000, compute=0.02)
        results = self._bucketed_results()
        for policy in ("none", "comm", "comm+compress"):
            for cross in (False, True):
                model = replace(timeline, overlap=policy, cross_bucket_pipeline=cross)
                total = model.compressed_iteration(results).total
                bound = model.lower_bound(results)
                assert bound <= total
                if policy == "none":
                    # The flat sum, whatever the lanes: nothing is scheduled.
                    assert bound == pytest.approx(total, rel=2e-9)
        # An unbucketed pool is bounded as its one-bucket table.
        unbucketed = [
            create_compressor("topk").compress(realistic_gradient(20_000, seed=13), 0.05)
        ]
        for policy in ("none", "comm", "comm+compress"):
            for cross in (False, True):
                model = replace(timeline, overlap=policy, cross_bucket_pipeline=cross)
                bound = model.lower_bound(unbucketed)
                assert math.isfinite(bound)
                assert bound <= model.compressed_iteration(unbucketed).total

    def test_result_facts_price_and_bound_as_the_results_do(self):
        timeline = _timeline(workers=2, dim=20_000, compute=0.02, scale=3.0)
        for results in (
            self._bucketed_results(),
            [create_compressor("topk").compress(realistic_gradient(20_000, seed=13), 0.05)],
        ):
            for policy in ("none", "comm+compress"):
                model = replace(timeline, overlap=policy)
                facts = model.result_facts(results)
                assert _priced(model.compressed_iteration(facts)) == _priced(
                    model.compressed_iteration(results)
                )
                assert model.lower_bound(facts) == model.lower_bound(results)
                assert model.bucket_communication_times(facts) == (
                    model.bucket_communication_times(results)
                )

    def test_result_facts_are_rejected_by_a_timeline_with_another_basis(self):
        timeline = _timeline(workers=2, dim=20_000, compute=0.02)
        facts = timeline.result_facts(self._bucketed_results())
        for other in (
            replace(timeline, compute_seconds=0.03),
            replace(timeline, dimension_scale=2.0),
        ):
            with pytest.raises(ValueError, match="derived under another"):
                other.price(facts)
        # The policies are not part of the basis: a replaced overlap reuses them.
        replace(timeline, overlap="comm").price(facts)

    def test_overlap_policies_strictly_faster_on_multi_bucket(self):
        timeline = _timeline(workers=2, dim=20_000, compute=0.02)
        results = self._bucketed_results()
        assert results[0].metadata["num_buckets"] > 1
        none = timeline.compressed_iteration(results)
        comm = replace(timeline, overlap="comm").compressed_iteration(results)
        both = replace(timeline, overlap="comm+compress").compressed_iteration(results)
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
        timeline = _timeline(workers=2, dim=20_000, compute=0.02, overlap="comm+compress")
        results = self._bucketed_results()
        timing = timeline.compressed_iteration(results)
        schedule = timing.schedule
        assert schedule is not None
        assert schedule.policy == "comm+compress"
        assert schedule.num_buckets == results[0].metadata["num_buckets"]
        assert timing.total == pytest.approx(schedule.iteration_seconds)
        assert schedule.total_comm_seconds == pytest.approx(timing.communication)
        assert (schedule.compress_end - schedule.compress_start).sum() == pytest.approx(timing.compression)

    def test_instance_default_policy_used(self):
        results = self._bucketed_results()
        base = dict(
            collective=CollectiveModel.flat(NETWORK, 2),
            device=GPU_V100,
            compute_seconds=0.02,
            model_dimension=20_000,
        )
        serial = TimelineModel(**base)  # default overlap="none"
        overlapped = TimelineModel(**base, overlap="comm+compress")
        assert overlapped.compressed_iteration(results).total < serial.compressed_iteration(results).total

    def test_unbucketed_results_ignore_overlap_policy(self):
        gradient = realistic_gradient(20_000, seed=13)
        results = [create_compressor("topk").compress(gradient, 0.05) for _ in range(2)]
        timeline = _timeline(workers=2, dim=20_000)
        none = timeline.compressed_iteration(results)
        both = replace(timeline, overlap="comm+compress").compressed_iteration(results)
        # One bucket, ready when the backward pass ends: nothing to overlap.
        assert check_schedule(both.schedule).num_buckets == 1
        assert both.total == none.total

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            replace(_timeline(), overlap="pipelined")
        with pytest.raises(ValueError):
            TimelineModel(
                CollectiveModel.flat(NetworkModel(), 2), GPU_V100, compute_seconds=0.0,
                model_dimension=10, overlap="everything",
            )

    def test_flat_collective_matches_explicit_single_level_topology(self):
        # Acceptance pin: an overlap-enabled timeline over ``CollectiveModel.flat``
        # and one over an explicit single-level topology with flat-allgather
        # price every policy bit-for-bit alike.
        base = dict(device=GPU_V100, compute_seconds=0.02, model_dimension=20_000)
        results = self._bucketed_results()
        flat = TimelineModel(collective=CollectiveModel.flat(NETWORK, 2), **base)
        explicit = TimelineModel(
            collective=CollectiveModel(
                topology=ClusterTopology.flat(NETWORK, 2), allgather_algorithm="flat-allgather"
            ),
            **base,
        )
        for policy in ("none", "comm", "comm+compress"):
            default = replace(flat, overlap=policy).compressed_iteration(results)
            topo = replace(explicit, overlap=policy).compressed_iteration(results)
            assert topo.total == default.total
            assert topo.serialized == default.serialized
            assert topo.communication == default.communication
        assert explicit.baseline_iteration().total == flat.baseline_iteration().total

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
        timeline = _timeline(workers=2, dim=spec.total_size, compute=0.05, overlap="comm+compress")
        timing = timeline.compressed_iteration(results)
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

    def _timeline(self, collective, overlap="none"):
        return TimelineModel(
            collective=collective,
            device=GPU_V100,
            compute_seconds=0.02,
            model_dimension=20_000,
            overlap=overlap,
        )

    def _bucketed_results(self, num_workers=2):
        from repro.pipeline import CompressionPipeline

        gradient = realistic_gradient(20_000, seed=13)
        pipeline = CompressionPipeline(create_compressor("topk"), bucket_bytes=16_000)
        return [pipeline.compress(gradient, 0.05) for _ in range(num_workers)]

    def test_num_workers_reads_the_collective(self):
        timeline = self._timeline(self._two_level())
        assert timeline.num_workers == timeline.collective.num_workers == 8

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
        timeline = self._timeline(self._two_level(allgather="hierarchical"), overlap="comm")
        schedule = timeline.compressed_iteration(results).schedule
        assert schedule is not None
        assert schedule.present.all()
        assert schedule.phase_names == ("intra-gather", "inter-allgather", "intra-broadcast")
        assert schedule.phase_start[:, 0].tolist() == schedule.comm_start.tolist()
        assert schedule.phase_end[:, -1].tolist() == schedule.comm_end.tolist()
        # Serial phases carry their fabric too, not just pipelined ones.
        assert schedule.phase_links == ("intra", "inter", "intra")

    def test_flat_allgather_single_phase_span(self):
        results = self._bucketed_results()
        timeline = self._timeline(self._two_level(allgather="flat-allgather"), overlap="comm")
        schedule = timeline.compressed_iteration(results).schedule
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

    def _timeline(self, collective, compute=0.02, scale=1.0, overlap="none"):
        return TimelineModel(
            collective=collective,
            device=GPU_V100,
            compute_seconds=compute,
            model_dimension=20_000,
            dimension_scale=scale,
            overlap=overlap,
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
        serial = self._timeline(
            self._collective(), scale=1000.0, overlap="comm"
        ).compressed_iteration(results)
        piped = self._timeline(
            self._collective(pipeline_chunks=4), scale=1000.0, overlap="comm"
        ).compressed_iteration(results)
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
            a = replace(default, overlap=policy).compressed_iteration(results)
            b = replace(knobs_off, overlap=policy).compressed_iteration(results)
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

    def _timeline(self, cross=False, compute=0.02, scale=1000.0, overlap="comm"):
        return TimelineModel(
            collective=self._collective(),
            device=GPU_V100,
            compute_seconds=compute,
            model_dimension=20_000,
            dimension_scale=scale,
            overlap=overlap,
            cross_bucket_pipeline=cross,
        )

    def _bucketed_results(self, num_workers=2, ratio=0.05):
        from repro.pipeline import CompressionPipeline

        gradient = realistic_gradient(20_000, seed=13)
        pipeline = CompressionPipeline(create_compressor("topk"), bucket_bytes=16_000)
        return [pipeline.compress(gradient, ratio) for _ in range(num_workers)]

    def test_model_default_keeps_serial_lane(self):
        timing = self._timeline().compressed_iteration(self._bucketed_results())
        assert not timing.cross_bucket_pipeline
        assert not timing.schedule.cross_bucket

    def test_cross_bucket_faster_never_changes_component_sum(self):
        results = self._bucketed_results()
        serial = self._timeline(cross=False).compressed_iteration(results)
        cross = self._timeline(cross=True).compressed_iteration(results)
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

    def test_overlap_none_prices_without_schedule(self):
        timing = self._timeline(cross=True, overlap="none").compressed_iteration(
            self._bucketed_results()
        )
        assert timing.schedule is None
        assert not timing.cross_bucket_pipeline
        assert timing.total == timing.serialized

    def test_unbucketed_results_schedule_one_bucket_on_the_models_lanes(self):
        gradient = realistic_gradient(20_000, seed=13)
        results = [create_compressor("topk").compress(gradient, 0.1) for _ in range(2)]
        for cross in (False, True):
            timing = self._timeline(cross=cross).compressed_iteration(results)
            assert check_schedule(timing.schedule).num_buckets == 1
            assert timing.schedule.cross_bucket == cross
            assert timing.cross_bucket_pipeline == cross
            assert timing.total == timing.serialized

    def test_non_bool_flag_rejected_at_model_construction(self):
        with pytest.raises(ValueError, match="cross_bucket_pipeline"):
            self._timeline(cross=1)

    def test_link_utilization_rises_with_cross_bucket(self):
        results = self._bucketed_results()
        serial = self._timeline(cross=False).compressed_iteration(results)
        cross = self._timeline(cross=True).compressed_iteration(results)
        serial_util = serial.schedule.link_utilization()
        cross_util = cross.schedule.link_utilization()
        assert set(cross_util) == {"intra", "inter"}
        for link in cross_util:
            assert cross_util[link]["busy_seconds"] == pytest.approx(
                serial_util[link]["busy_seconds"]
            )
            assert cross_util[link]["utilization"] >= serial_util[link]["utilization"]
