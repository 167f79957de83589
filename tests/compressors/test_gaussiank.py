"""Tests for the GaussianKSGD heuristic threshold compressor."""

import numpy as np
import pytest

from repro.compressors import GaussianKSGD
from tests.synthetic import laplace_gradient


class TestGaussianKSGD:
    def test_exact_on_gaussian_gradients(self, rng):
        # When the modelling assumption holds the estimate is good.
        gradient = rng.normal(0.0, 1e-3, size=200_000)
        result = GaussianKSGD(max_adjust_iters=0).compress(gradient, 0.01)
        assert 0.7 <= result.estimation_quality <= 1.3

    def test_biased_on_heavy_tailed_gradients(self):
        # On Laplace (SID) gradients the Gaussian assumption misplaces the
        # threshold noticeably before correction.
        gradient = laplace_gradient(200_000, scale=1e-3, seed=0)
        result = GaussianKSGD(max_adjust_iters=0).compress(gradient, 0.001)
        assert abs(result.estimation_quality - 1.0) > 0.3

    def test_adjustment_iterations_improve_quality(self):
        gradient = laplace_gradient(200_000, scale=1e-3, seed=0)
        raw = GaussianKSGD(max_adjust_iters=0).compress(gradient, 0.001)
        adjusted = GaussianKSGD(max_adjust_iters=8).compress(gradient, 0.001)
        assert abs(adjusted.estimation_quality - 1.0) <= abs(raw.estimation_quality - 1.0)

    def test_constant_vector_degenerate_path(self):
        result = GaussianKSGD().compress(np.full(512, 3.0), 0.1)
        assert result.achieved_k >= 1

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            GaussianKSGD(max_adjust_iters=-1)
        with pytest.raises(ValueError):
            GaussianKSGD(tolerance=0.0)
        with pytest.raises(ValueError):
            GaussianKSGD(step=1.0)

    def test_trace_reports_iterations(self, small_gradient):
        result = GaussianKSGD(max_adjust_iters=4).compress(small_gradient, 0.01)
        # Two reduces for mean and std, then one per correction iteration.
        iterations = sum(op.op == "reduce" for op in result.ops) - 2
        assert 0 <= iterations <= 4
