"""Tests for the text reporting helpers."""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.harness import (
    format_overlap_summary,
    format_series,
    format_speedup_summary,
    format_table,
)


@dataclass
class Row:
    compressor: str
    speedup: float


class TestFormatTable:
    def test_renders_dicts(self):
        text = format_table([{"a": 1, "b": 2.5}, {"a": 3, "b": 0.001}], title="demo")
        assert "demo" in text
        assert "a" in text.splitlines()[1]
        assert len(text.splitlines()) == 5

    def test_renders_dataclasses(self):
        text = format_table([Row("topk", 1.0), Row("sidco-e", 41.7)])
        assert "sidco-e" in text
        assert "41.7" in text

    def test_empty_rows(self):
        assert "(no rows)" in format_table([])

    def test_column_selection(self):
        text = format_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_rejects_unknown_row_type(self):
        with pytest.raises(TypeError):
            format_table([42])


class TestFormatSeries:
    def test_subsamples_long_series(self):
        text = format_series("loss", range(100), range(100), max_points=5)
        assert text.count("(") <= 10

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_series("x", [1, 2], [1])


class TestOverlapSummary:
    def test_renders_overlapped_vs_serialized(self):
        rows = [
            {
                "compressor": "sidco-e",
                "overlap": "comm+compress",
                "total_time": 0.8,
                "serialized_time": 1.0,
                "overlap_saving": 0.2,
            },
            {"compressor": "topk", "overlap": "none", "total_time": 1.0},
        ]
        text = format_overlap_summary(rows)
        assert "sidco-e" in text and "comm+compress" in text
        assert "serialized=1" in text
        assert "saved=20%" in text
        # Rows without overlap fields degrade to serialized == overlapped.
        assert "topk" in text and "saved=0%" in text


class TestSpeedupSummary:
    def test_groups_by_ratio(self):
        rows = [
            {"compressor": "topk", "ratio": 0.01, "speedup_vs_baseline": 1.5, "throughput_vs_baseline": 2.0, "estimation_quality": 1.0},
            {"compressor": "sidco-e", "ratio": 0.01, "speedup_vs_baseline": 5.0, "throughput_vs_baseline": 6.0, "estimation_quality": 1.0},
        ]
        text = format_speedup_summary(rows)
        assert "ratio=0.01" in text
        assert "sidco-e" in text


class TestPhaseBreakdown:
    def test_renders_collective_phases(self):
        from repro.distributed import CollectiveModel, get_topology
        from repro.harness import format_phase_breakdown

        cost = CollectiveModel(
            get_topology("ethernet-4x8"), allgather_algorithm="hierarchical"
        ).allgather_cost(1e5)
        text = format_phase_breakdown(cost)
        assert "allgather via hierarchical over 32 workers" in text
        for phase in ("intra-gather", "inter-allgather", "intra-broadcast"):
            assert phase in text
        assert "ethernet-10g" in text and "infiniband-100g" in text
        assert "total" in text

    def test_single_participant_renders_free(self):
        from repro.distributed import CollectiveModel, NetworkModel
        from repro.harness import format_phase_breakdown

        cost = CollectiveModel.flat(NetworkModel(), 1).allgather_cost(1e5)
        assert "free" in format_phase_breakdown(cost)

    def test_renders_pipelined_chunks_with_placement_and_makespan(self):
        from repro.distributed import CollectiveModel, SparseAggregateModel, get_topology
        from repro.harness import format_phase_breakdown

        cost = CollectiveModel(
            get_topology("ethernet-4x8"),
            allgather_algorithm="hierarchical",
            pipeline_chunks=2,
            allgather_dedup=SparseAggregateModel("uniform"),
        ).allgather_cost(2e6, density=0.1)
        assert cost.pipeline_chunks > 1
        text = format_phase_breakdown(cost)
        assert "pipelined over 2 chunks" in text
        assert "dedup ratio" in text
        assert "inter-allgather[c0]" in text and "inter-allgather[c1]" in text
        assert "@" in text  # placement offsets shown
        assert "makespan" in text
        # The makespan headline is the cost's placement-aware total, not the
        # (larger) sum of every chunked phase.
        from repro.harness.reporting import _format_value

        assert _format_value(cost.total) in text

    def test_dedup_only_breakdown_reports_achieved_ratio(self):
        from repro.distributed import CollectiveModel, SparseAggregateModel, get_topology
        from repro.harness import format_phase_breakdown

        cost = CollectiveModel(
            get_topology("ethernet-4x8"),
            allgather_algorithm="hierarchical",
            allgather_dedup=SparseAggregateModel("uniform"),
        ).allgather_cost(2e6, density=0.1)
        assert cost.pipeline_chunks == 1 and cost.dedup_ratio > 1.0
        text = format_phase_breakdown(cost)
        assert "dedup ratio" in text
        assert "pipelined" not in text
        assert "total" in text

    def test_serial_breakdown_keeps_total_semantics(self):
        from repro.distributed import CollectiveModel, get_topology
        from repro.harness import format_phase_breakdown

        cost = CollectiveModel(
            get_topology("ethernet-4x8"), allgather_algorithm="hierarchical"
        ).allgather_cost(1e5)
        text = format_phase_breakdown(cost)
        assert "pipelined" not in text
        assert "makespan" not in text
        assert "total" in text


class TestLinkUtilizationReport:
    def test_renders_per_link_rows_and_lane_mode(self, two_fabric_schedule):
        from repro.harness import format_link_utilization

        serial = format_link_utilization(two_fabric_schedule(False))
        cross = format_link_utilization(two_fabric_schedule(True))
        assert "serial lane" in serial
        assert "per-link lanes" in cross
        for text in (serial, cross):
            assert "intra" in text and "inter" in text
            assert "utilisation=" in text and "busy=" in text

    def _schedule(self, phase_seconds, links):
        from repro.distributed import simulate_iteration_arrays

        from tests.schedule_checks import check_schedule

        num_buckets = len(phase_seconds)
        schedule = simulate_iteration_arrays(
            ready_seconds=[0.0] * num_buckets,
            compress_seconds=[0.0] * num_buckets,
            phase_seconds=np.reshape(phase_seconds, (num_buckets, len(links))),
            phase_names=tuple(f"phase-{j}" for j in range(len(links))),
            phase_links=links,
            compute_seconds=0.1,
            overlap="comm",
        )
        check_schedule(schedule)
        return schedule

    def test_empty_schedule_renders_placeholder(self):
        from repro.harness import format_link_utilization

        schedule = self._schedule([], ("net",))
        assert "(no communication events)" in format_link_utilization(schedule)

    def test_unnamed_link_labelled(self):
        from repro.harness import format_link_utilization

        text = format_link_utilization(self._schedule([[0.2]], ("",)))
        assert "(unattributed)" in text
