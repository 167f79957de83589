"""An unbucketed worker pool prices as the one-bucket phase table, bit for bit.

The reference is the closed form unbucketed pools were priced with before
they went through the phase table: the slowest worker's whole payload
all-gathered once (``CollectiveModel.allgather_cost``) and summed with the
compute, compression and update times; the iteration's dedup ratio is that
cost's.  Every timing field must equal it exactly, on every preset,
all-gather algorithm, chunking, dedup model, overlap policy and lane layout,
at nominal and at scaled lane rates.  Under an overlap policy the pool gets a
one-bucket schedule, ready at the end of the backward pass.
"""

import itertools
import math

import pytest

from repro.compressors import create_compressor
from repro.distributed import (
    TOPOLOGIES,
    CollectiveModel,
    SparseAggregateModel,
    TimelineModel,
    get_topology,
)
from repro.gradients import realistic_gradient
from repro.perfmodel import GPU_V100
from repro.perfmodel.costs import scale_ops
from tests.schedule_checks import check_schedule

ALGORITHMS = ("flat-allgather", "recursive-doubling", "hierarchical")
COMPUTE_SECONDS = 0.0123
UPDATE_SECONDS = 0.0017

#: ``(elements, ratio, dimension_scale)`` per pool of two top-k workers.  The
#: first makes a one-row volume-weighted dedup mean, ``(w * r) / w``, differ
#: from the cost's own ratio ``r`` on ``torus-2d`` (see
#: ``test_the_oracle_catches_a_naive_one_row_mean``); on the other two,
#: spreading the compression time ``c`` by the dense size, ``c * d / d``, is
#: not ``c``.
POOLS = ((3_000, 0.1, 333.0), (2_999, 0.05, 1.0), (3_003, 0.01, 50.0))


@pytest.fixture(scope="module")
def pools():
    compressor = create_compressor("topk")
    return {
        (elements, ratio): [
            compressor.compress(realistic_gradient(elements, seed=seed), ratio)
            for seed in (0, 1)
        ]
        for elements, ratio, _ in POOLS
    }


def _timeline(preset, algorithm, chunks, dedup, overlap, cross_bucket, scale) -> TimelineModel:
    collective = CollectiveModel(
        get_topology(preset),
        allgather_algorithm=algorithm,
        pipeline_chunks=chunks,
        allgather_dedup=None if dedup is None else SparseAggregateModel(dedup),
    )
    return TimelineModel(
        collective=collective,
        device=GPU_V100,
        compute_seconds=COMPUTE_SECONDS,
        model_dimension=3_000,
        update_seconds=UPDATE_SECONDS,
        dimension_scale=scale,
        overlap=overlap,
        cross_bucket_pipeline=cross_bucket,
    )


def _reference(timeline: TimelineModel, results, compute_scale=1.0, comm_scale=1.0):
    """``(compression, communication, total, dedup_ratio)`` of the closed form."""
    slowest = max(results, key=lambda r: r.sparse.payload_bytes())
    cost = timeline.collective.allgather_cost(
        slowest.sparse.payload_bytes() * timeline.dimension_scale,
        density=slowest.sparse.density or None,
    )
    compression = max(
        GPU_V100.trace_cost(scale_ops(r.ops, timeline.dimension_scale)) for r in results
    )
    compute = COMPUTE_SECONDS * compute_scale
    compression = compression * compute_scale
    communication = cost.total * comm_scale
    total = compute + compression + communication + UPDATE_SECONDS * compute_scale
    return compression, communication, total, cost.dedup_ratio


GRID = list(itertools.product(
    sorted(TOPOLOGIES), ALGORITHMS, (1, 4), (None, "uniform"),
    ("none", "comm", "comm+compress"), (False, True),
))


@pytest.mark.parametrize("preset,algorithm,chunks,dedup,overlap,cross_bucket", GRID)
def test_one_bucket_table_is_the_closed_form(
    pools, preset, algorithm, chunks, dedup, overlap, cross_bucket
):
    for elements, ratio, scale in POOLS:
        results = pools[elements, ratio]
        timeline = _timeline(preset, algorithm, chunks, dedup, overlap, cross_bucket, scale)
        facts = timeline.result_facts(results)
        # One bucket, ready when the backward pass ends, compressed for the
        # whole compression time.
        assert facts.ready_seconds.tolist() == [COMPUTE_SECONDS]
        assert facts.compress_seconds.tolist() == [_reference(timeline, results)[0]]
        for rates in ((1.0, 1.0), (2.0, 1.5)):
            timing = timeline.compressed_iteration(
                facts, compute_scale=rates[0], comm_scale=rates[1]
            )
            compression, communication, total, dedup_ratio = _reference(
                timeline, results, *rates
            )
            assert timing.compression == compression
            assert timing.communication == communication
            assert timing.total == total
            assert timing.dedup_ratio == dedup_ratio
            if overlap == "none":
                assert timing.schedule is None
            else:
                schedule = check_schedule(timing.schedule)
                assert schedule.num_buckets == 1
                assert schedule.cross_bucket == cross_bucket
                assert schedule.ready.tolist() == [COMPUTE_SECONDS * rates[0]]
        bound = timeline.lower_bound(facts)
        assert math.isfinite(bound) and bound <= timeline.compressed_iteration(facts).total
        assert timeline.bucket_communication_times(facts) == [
            timeline.compressed_iteration(facts).communication
        ]


def test_the_oracle_catches_a_naive_one_row_mean(pools):
    # Weighting the one row by its volume rounds away from the cost's ratio
    # here, so the grid above fails a timeline that takes the plain mean.
    timeline = _timeline("torus-2d", "hierarchical", 1, "uniform", "comm", False, 333.0)
    facts = timeline.result_facts(pools[3_000, 0.1])
    table = timeline.collective.allgather_phase_table(facts.payloads, facts.densities)
    (ratio,) = table.dedup_ratios.tolist()
    weight = float(table.volumes.sum())
    assert (weight * ratio) / weight != ratio
    assert timeline.compressed_iteration(facts).dedup_ratio == ratio
