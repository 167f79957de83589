"""Tests for the adaptive hard-threshold baseline."""

import pytest

from repro.compressors import AdaptiveHardThreshold
from repro.gradients import realistic_gradient


class TestAdaptiveHardThreshold:
    def test_converges_toward_target_over_calls(self):
        compressor = AdaptiveHardThreshold(adjustment_rate=1.0)
        quality = None
        for i in range(25):
            gradient = realistic_gradient(50_000, seed=i)
            quality = compressor.compress(gradient, 0.01).estimation_quality
        assert 0.5 <= quality <= 2.0

    def test_threshold_scales_with_gradient_magnitude(self):
        small = AdaptiveHardThreshold().compress(realistic_gradient(10_000, seed=0) * 0.1, 0.01)
        large = AdaptiveHardThreshold().compress(realistic_gradient(10_000, seed=0) * 10.0, 0.01)
        assert large.threshold > small.threshold * 10

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveHardThreshold(adjustment_rate=0.0)
