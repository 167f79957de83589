"""Ablation: single-stage vs multi-stage threshold fitting (Section 2.3 vs 2.4).

Sweeps the forced number of stages and shows that at aggressive ratios one
stage misplaces the threshold by orders of magnitude while two or more stages
land within the paper's tolerance band — the design choice SIDCo is built on.
"""

import numpy as np
import pytest

from repro.core.threshold import DEFAULT_FIRST_STAGE_RATIO
from repro.gradients import realistic_gradient
from repro.harness import format_table
from repro.pipeline import BucketLayout, estimate_multi_stage_bucketed

STAGES = (1, 2, 3, 4)
RATIOS = (0.01, 0.001, 0.0001)


def threshold(abs_grad, ratio, stages):
    """SIDCo-e's threshold for the whole vector: the one-bucket fit."""
    layout = BucketLayout(total_size=abs_grad.size, bucket_size=abs_grad.size)
    estimate = estimate_multi_stage_bucketed(
        abs_grad, layout, ratio, "exponential", stages, first_stage_ratio=DEFAULT_FIRST_STAGE_RATIO
    )
    return estimate.thresholds[0]


@pytest.fixture(scope="module")
def quality_by_stage():
    out = {}
    for ratio in RATIOS:
        for stages in STAGES:
            qualities = []
            for seed in range(8):
                abs_grad = np.abs(realistic_gradient(150_000, seed=seed))
                achieved = float(np.mean(abs_grad >= threshold(abs_grad, ratio, stages)))
                qualities.append(achieved / ratio)
            out[(ratio, stages)] = float(np.mean(qualities))
    return out


def test_ablation_stage_count(benchmark, quality_by_stage):
    benchmark(
        lambda: threshold(np.abs(realistic_gradient(150_000, seed=0)), 0.001, 2)
    )
    rows = [
        {"ratio": ratio, "stages": stages, "khat_over_k": quality_by_stage[(ratio, stages)]}
        for ratio in RATIOS
        for stages in STAGES
    ]
    print("\n" + format_table(rows, title="Ablation — estimation quality vs number of stages"))

    for ratio in RATIOS:
        single = quality_by_stage[(ratio, 1)]
        multi = quality_by_stage[(ratio, 2)]
        # Single-stage fitting badly over-selects at aggressive ratios on
        # mixture gradients; two stages land within ~35% of the target.
        assert abs(multi - 1.0) < abs(single - 1.0)
        assert abs(multi - 1.0) < 0.35
    assert quality_by_stage[(0.0001, 1)] > 10.0  # the failure mode multi-stage fixes

    # Adding further stages never makes things much worse.
    for ratio in RATIOS:
        for stages in (3, 4):
            assert abs(quality_by_stage[(ratio, stages)] - 1.0) < 0.5
