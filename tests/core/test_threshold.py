"""Tests for single- and multi-stage threshold estimation: the one-bucket fit of a whole vector."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.threshold import DEFAULT_FIRST_STAGE_RATIO, stage_sid
from repro.gradients import realistic_gradient
from repro.pipeline import BucketLayout, estimate_multi_stage_bucketed
from tests.synthetic import laplace_gradient


def estimate_multi_stage(abs_grad, delta, sid, num_stages):
    """The one-bucket estimate of ``abs_grad``, as ``(threshold, stages_used, ops)``."""
    layout = BucketLayout(total_size=abs_grad.size, bucket_size=abs_grad.size)
    estimate = estimate_multi_stage_bucketed(
        abs_grad, layout, delta, sid, num_stages, first_stage_ratio=DEFAULT_FIRST_STAGE_RATIO
    )
    return float(estimate.thresholds[0]), int(estimate.stages_used[0]), estimate.ops[0]


def estimate_single_stage(abs_grad, delta, sid):
    return estimate_multi_stage(abs_grad, delta, sid, 1)


class TestStageSid:
    def test_exponential_chains_to_exponential(self):
        assert stage_sid("exponential", 0) == "exponential"
        assert stage_sid("exponential", 3) == "exponential"

    def test_gamma_and_gp_chain_to_gp(self):
        assert stage_sid("gamma", 0) == "gamma"
        assert stage_sid("gamma", 1) == "gpareto"
        assert stage_sid("gpareto", 2) == "gpareto"

    def test_unknown_sid_rejected(self):
        with pytest.raises(ValueError):
            stage_sid("gaussian", 0)


class TestSingleStage:
    def test_exact_on_laplace_gradients(self):
        abs_grad = np.abs(laplace_gradient(500_000, scale=1e-3, seed=0))
        threshold, stages_used, _ = estimate_single_stage(abs_grad, 0.01, "exponential")
        kept = np.mean(abs_grad >= threshold)
        assert abs(kept - 0.01) / 0.01 < 0.1
        assert stages_used == 1

    def test_ops_reflect_sid(self):
        abs_grad = np.abs(laplace_gradient(10_000, seed=1))
        *_, exp_ops = estimate_single_stage(abs_grad, 0.01, "exponential")
        *_, gamma_ops = estimate_single_stage(abs_grad, 0.01, "gamma")
        assert any(op.op == "reduce" for op in exp_ops)
        assert any(op.op == "log_reduce" for op in gamma_ops)


class TestMultiStage:
    @pytest.mark.parametrize("sid", ["exponential", "gamma", "gpareto"])
    def test_two_stages_accurate_at_aggressive_ratio(self, sid):
        abs_grad = np.abs(realistic_gradient(300_000, seed=3))
        delta = 0.001
        threshold, stages_used, _ = estimate_multi_stage(abs_grad, delta, sid, 2)
        kept = np.mean(abs_grad >= threshold)
        assert abs(kept - delta) / delta < 0.35
        assert stages_used >= 2

    def test_multi_stage_beats_single_stage_on_mixture(self):
        abs_grad = np.abs(realistic_gradient(300_000, seed=4))
        delta = 0.001
        single, *_ = estimate_single_stage(abs_grad, delta, "exponential")
        multi, *_ = estimate_multi_stage(abs_grad, delta, "exponential", 2)
        err_single = abs(np.mean(abs_grad >= single) - delta)
        err_multi = abs(np.mean(abs_grad >= multi) - delta)
        assert err_multi < err_single

    def test_excess_stages_collapse_when_not_needed(self):
        abs_grad = np.abs(realistic_gradient(50_000, seed=6))
        _, stages_used, _ = estimate_multi_stage(abs_grad, 0.3, "exponential", 5)
        assert stages_used == 1  # moderate ratio resolved in one stage

    def test_tiny_vector_falls_back_gracefully(self):
        abs_grad = np.abs(laplace_gradient(8, seed=7))
        threshold, stages_used, _ = estimate_multi_stage(abs_grad, 0.5, "exponential", 3)
        assert threshold >= 0.0
        assert stages_used >= 1

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError):
            estimate_multi_stage(np.array([]), 0.01, "exponential", 2)

    @pytest.mark.parametrize("bad_delta", [0.0, 1.0, 1.2])
    def test_invalid_delta_rejected(self, bad_delta):
        with pytest.raises(ValueError):
            estimate_multi_stage(np.ones(100), bad_delta, "exponential", 2)

    def test_invalid_stage_count_rejected(self):
        with pytest.raises(ValueError):
            estimate_multi_stage(np.ones(100), 0.1, "exponential", 0)

    @given(
        num_stages=st.integers(min_value=1, max_value=5),
        delta_exp=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_threshold_positive_and_finite(self, num_stages, delta_exp, seed):
        abs_grad = np.abs(realistic_gradient(20_000, seed=seed))
        delta = 10.0**-delta_exp
        threshold, *_ = estimate_multi_stage(abs_grad, delta, "exponential", num_stages)
        assert np.isfinite(threshold)
        assert threshold > 0.0
