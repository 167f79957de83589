"""Tests for the DGC sampling-based compressor."""

import numpy as np
import pytest

from repro.compressors import DGC


class TestDGC:
    def test_estimation_quality_close_to_target(self, medium_gradient):
        for ratio in (0.1, 0.01, 0.001):
            result = DGC(seed=1).compress(medium_gradient, ratio)
            assert 0.5 <= result.estimation_quality <= 1.5, ratio

    def test_trim_caps_selection_at_k(self, medium_gradient):
        # overshoot_trim=1.0 forces a second Top-k whenever the threshold
        # selection exceeds k, so the result is never larger than k.
        result = DGC(sample_ratio=0.01, overshoot_trim=1.0, seed=0).compress(medium_gradient, 0.01)
        k = int(round(0.01 * medium_gradient.size))
        assert result.achieved_k <= k

    def test_sampling_ops_recorded(self, small_gradient):
        result = DGC(seed=0).compress(small_gradient, 0.01)
        sample_ops = [op for op in result.ops if op.op == "random_sample"]
        assert len(sample_ops) == 1
        assert sample_ops[0].size == small_gradient.size
        # The sample size is the k of the sampling op.
        assert sample_ops[0].k >= int(0.01 * small_gradient.size)

    def test_deterministic_given_seed(self, small_gradient):
        a = DGC(seed=42).compress(small_gradient, 0.01)
        b = DGC(seed=42).compress(small_gradient, 0.01)
        assert np.array_equal(a.sparse.indices, b.sparse.indices)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            DGC(sample_ratio=0.0)
        with pytest.raises(ValueError):
            DGC(sample_ratio=1.5)
        with pytest.raises(ValueError):
            DGC(overshoot_trim=0.5)

    def test_sample_ratio_one_is_exact_topk_threshold(self, small_gradient):
        # Sampling the whole vector makes the first stage an exact Top-k.
        result = DGC(sample_ratio=1.0, seed=0).compress(small_gradient, 0.05)
        k = int(round(0.05 * small_gradient.size))
        assert abs(result.achieved_k - k) <= max(2, 0.01 * k)
