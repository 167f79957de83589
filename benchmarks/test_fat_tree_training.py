"""One training iteration on ``fat-tree-128``: 1,024 workers in one grouped compression call.

The planner's ``tune-cold`` query picks ``fat-tree-128``; the trainer must be
able to run what the planner picks.  The proxy dataset grows to one batch per
worker (8,192 examples for vgg16's batch of 8), and the iteration compresses
all 1,024 workers' gradients in one ``fit_all_buckets`` call over about 60k
(worker, bucket) segments.  The run takes a few seconds (1,024 conv passes and
an evaluation over the grown dataset), so it lives here rather than in tier-1.
"""

import math

from repro.distributed import SimulationKnobs
from repro.harness.training_runs import run_benchmark


def test_one_iteration_on_fat_tree_128():
    knobs = SimulationKnobs(topology="fat-tree-128", bucket_bytes=2**20)
    result = run_benchmark("vgg16-cifar10", "dgc", 0.001, iterations=1, knobs=knobs)
    [record] = result.metrics.records
    assert record.samples == 1024 * 8  # every worker's batch took part
    assert all(
        math.isfinite(value)
        for value in (
            record.loss, record.achieved_ratio, record.threshold, record.compression_time,
            record.communication_time, record.iteration_time,
        )
    )
    assert 0.0 < record.achieved_ratio < 1.0
    assert all(math.isfinite(value) for value in result.final_evaluation.values())
