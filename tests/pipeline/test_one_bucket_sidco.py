"""Unbucketed SIDCo is the one-bucket fit, bit for bit equal to the scalar estimator it replaced.

``threshold_reference.py`` keeps the scalar multi-stage estimator and
``compressor_reference.py`` the scalar ``SIDCo.compress`` built on it.  Over
``BucketLayout(d, d)`` the batched estimator must give the same threshold,
stages used, selection and op trace with ``==``; a stage sample the scalar
estimator rejects as degenerate (``ValueError``) gets a ``+inf`` threshold
and selects nothing.  A G-row unbucketed ``compress_group`` must equal G
scalar compresses, call after call, while the stage controllers adapt.
"""

from __future__ import annotations

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MIN_STAGE_SAMPLE, SIDCo, StageControllerConfig
from repro.gradients import realistic_gradient
from repro.pipeline import BucketLayout, estimate_multi_stage_bucketed

from .compressor_reference import reference_compress
from .threshold_reference import estimate_multi_stage

SIDS = ["exponential", "gamma", "gpareto"]
RATIOS = [0.3, 0.1, 0.01, 0.001]


def same_float(a, b) -> bool:
    """``==``, with NaN equal to NaN (a fit whose moments overflow)."""
    return a == b or (np.isnan(a) and np.isnan(b))


@st.composite
def gradients(draw, min_size=2):
    """A realistic gradient, maybe with runs of zeros, a constant magnitude or overflowing sums."""
    size = draw(st.one_of(st.integers(min_size, MIN_STAGE_SAMPLE + 2), st.integers(min_size, 5000)))
    gradient = realistic_gradient(size, seed=draw(st.integers(0, 2**20)))
    kind = draw(st.sampled_from(["realistic", "zeros", "constant", "overflow"]))
    if kind == "zeros":
        for _ in range(draw(st.integers(1, 3))):
            start = draw(st.integers(0, size - 1))
            gradient[start : start + draw(st.integers(1, size))] = 0.0
    elif kind == "constant":
        gradient = np.where(gradient < 0.0, -0.01, 0.01)
    elif kind == "overflow":
        gradient[: draw(st.integers(1, 3))] = 1e308
    return gradient


@given(
    gradient=gradients(),
    sid=st.sampled_from(SIDS),
    stages=st.integers(1, 4),
    ratio=st.sampled_from(RATIOS),
)
@settings(max_examples=400, deadline=None)
def test_one_bucket_estimate_equals_scalar_estimator(gradient, sid, stages, ratio):
    magnitudes = np.abs(gradient)
    layout = BucketLayout(total_size=gradient.size, bucket_size=gradient.size)
    with np.errstate(over="ignore", invalid="ignore"):
        batched = estimate_multi_stage_bucketed(
            gradient, layout, ratio, sid, stages, first_stage_ratio=0.25
        )
        try:
            scalar = estimate_multi_stage(magnitudes, ratio, sid, stages, first_stage_ratio=0.25)
        except ValueError:
            scalar = None
    if scalar is None:
        # A degenerate stage sample: the bucket selects nothing.
        assert batched.thresholds[0] == np.inf
        assert batched.indices.size == 0
        return
    assert same_float(batched.thresholds[0], scalar.threshold)
    assert batched.stages_used[0] == scalar.stages_used
    assert batched.ops == [scalar.ops]
    np.testing.assert_array_equal(batched.indices, np.flatnonzero(magnitudes >= scalar.threshold))
    assert batched.bucket_nnz[0] == batched.indices.size


@given(
    sid=st.sampled_from(SIDS),
    size=st.integers(1, 3000),
    initial_stages=st.lists(st.integers(1, 3), min_size=1, max_size=5),
    ratio=st.sampled_from(RATIOS),
    seed=st.integers(0, 2**16),
    zero_rows=st.lists(st.booleans(), min_size=10, max_size=10),
)
@settings(max_examples=60, deadline=None)
def test_grouped_unbucketed_compress_equals_scalar_compress(
    sid, size, initial_stages, ratio, seed, zero_rows
):
    # Q = 2 so the controllers adapt several times within ten calls.
    group = [
        SIDCo(sid, controller=StageControllerConfig(adaptation_interval=2, initial_stages=stages))
        for stages in initial_stages
    ]
    twins = copy.deepcopy(group)
    rng = np.random.default_rng(seed)
    target_k = max(1, round(ratio * size))
    for zero in zero_rows:
        rows = rng.standard_normal((len(group), size)) * rng.lognormal(size=(len(group), 1))
        rows[:, : size // 3] *= 1e-3  # a near-zero bulk under a heavier tail
        if zero:
            rows[0] = 0.0
        results = group[0].compress_group(rows, ratio, group)
        for twin, row, result in zip(twins, rows, results):
            try:
                expected = reference_compress(twin, row, ratio)
            except ValueError:
                # A degenerate stage sample: nothing selected, observed as such.
                assert result.threshold == np.inf and result.sparse.nnz == 0
                twin.controller.observe(0, target_k)
                continue
            np.testing.assert_array_equal(result.sparse.indices, expected.sparse.indices)
            np.testing.assert_array_equal(result.sparse.values, expected.sparse.values)
            assert repr(result.threshold) == repr(expected.threshold)
            assert result.ops == expected.ops
            assert result.target_ratio == expected.target_ratio
            for key in ("sid", "stages_used", "num_stages_configured", "degenerate"):
                assert result.metadata.get(key) == expected.metadata.get(key), key
        for member, twin in zip(group, twins):
            assert vars(member.controller) == vars(twin.controller)
