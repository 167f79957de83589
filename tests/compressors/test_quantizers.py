"""Tests for the quantizer extension baselines (sign-SGD, TernGrad)."""

import numpy as np
import pytest

from repro.compressors.quantizers import FLOAT_BITS, SignSGD, TernGrad


class TestSignSGD:
    def test_preserves_signs_and_scale(self, small_gradient):
        result = SignSGD().quantize(small_gradient)
        nonzero = small_gradient != 0.0
        assert np.allclose(np.sign(result.dequantized[nonzero]), np.sign(small_gradient[nonzero]))
        assert np.allclose(np.abs(result.dequantized), result.metadata["scale"])

    def test_volume_reduction_close_to_32x(self, small_gradient):
        result = SignSGD().quantize(small_gradient)
        assert 30.0 < result.volume_reduction <= FLOAT_BITS
        assert result.payload_bytes() < small_gradient.size * 4 / 30

    def test_l1_scale_minimises_error_among_uniform_scales(self, rng):
        # mean(|g|) is the optimal per-call scale for sign quantization in L2.
        grad = rng.laplace(size=10_000)
        result = SignSGD().quantize(grad)
        best_scale = result.metadata["scale"]
        err_best = np.linalg.norm(grad - best_scale * np.sign(grad))
        for worse in (best_scale * 0.5, best_scale * 2.0):
            assert err_best <= np.linalg.norm(grad - worse * np.sign(grad))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SignSGD().quantize(np.array([]))

    def test_error_feedback_compatible(self, rng):
        # The residual g - Q(g) is well defined and smaller than g on average.
        grad = rng.laplace(size=5000)
        result = SignSGD().quantize(grad)
        residual = grad - result.dequantized
        assert np.linalg.norm(residual) < np.linalg.norm(grad) * 1.5


class TestTernGrad:
    def test_values_are_ternary(self, small_gradient):
        result = TernGrad(seed=0).quantize(small_gradient)
        scale = result.metadata["scale"]
        unique = np.unique(result.dequantized)
        assert set(np.round(unique / scale, 12)).issubset({-1.0, 0.0, 1.0})

    def test_unbiasedness(self, rng):
        grad = rng.normal(size=500)
        total = np.zeros_like(grad)
        trials = 600
        quantizer = TernGrad(seed=1)
        for _ in range(trials):
            total += quantizer.quantize(grad).dequantized
        mean_estimate = total / trials
        correlation = np.corrcoef(mean_estimate, grad)[0, 1]
        assert correlation > 0.95

    def test_zero_gradient_stays_zero(self):
        result = TernGrad().quantize(np.zeros(100))
        assert np.allclose(result.dequantized, 0.0)

    def test_reset_restores_stream(self, small_gradient):
        quantizer = TernGrad(seed=3)
        first = quantizer.quantize(small_gradient).dequantized
        quantizer.quantize(small_gradient)
        quantizer.reset()
        again = quantizer.quantize(small_gradient).dequantized
        assert np.allclose(first, again)

    def test_bits_per_element_below_two(self, small_gradient):
        result = TernGrad().quantize(small_gradient)
        assert result.bits_per_element < 2.0
        assert result.volume_reduction > 16.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TernGrad().quantize(np.array([]))
