"""Tests for synthetic gradient generators."""

import numpy as np
import pytest

from repro.gradients import (
    MODEL_DIMENSIONS,
    double_gamma_gradient,
    double_gpareto_gradient,
    evolving_gradients,
    laplace_gradient,
    model_sized_gradient,
    realistic_gradient,
    sid_gradient,
)
from repro.stats import Laplace, fit_power_law_decay


class TestSIDGenerators:
    def test_laplace_statistics(self):
        g = laplace_gradient(200_000, scale=1e-3, seed=0)
        assert abs(np.mean(g)) < 1e-4
        assert np.isclose(np.mean(np.abs(g)), 1e-3, rtol=0.05)
        fitted = Laplace.fit(g)
        assert np.isclose(fitted.scale, 1e-3, rtol=0.05)

    def test_gamma_gradient_more_peaked_than_laplace(self):
        gamma = double_gamma_gradient(200_000, shape=0.3, scale=1e-3, seed=0)
        lap = laplace_gradient(200_000, scale=np.mean(np.abs(gamma)), seed=0)
        # Same mean magnitude, but the gamma version has more mass near zero.
        threshold = np.mean(np.abs(gamma)) * 0.1
        assert np.mean(np.abs(gamma) < threshold) > np.mean(np.abs(lap) < threshold)

    def test_gpareto_gradient_heavy_tail(self):
        g = double_gpareto_gradient(200_000, shape=0.3, scale=1e-3, seed=0)
        ratio = np.quantile(np.abs(g), 0.999) / np.quantile(np.abs(g), 0.5)
        lap = laplace_gradient(200_000, scale=1e-3, seed=0)
        lap_ratio = np.quantile(np.abs(lap), 0.999) / np.quantile(np.abs(lap), 0.5)
        assert ratio > lap_ratio

    def test_dispatch_by_name(self):
        for sid in ("exponential", "gamma", "gpareto"):
            g = sid_gradient(sid, 1000, seed=0)
            assert g.shape == (1000,)
        with pytest.raises(ValueError):
            sid_gradient("gaussian", 100)

    def test_deterministic_given_seed(self):
        assert np.allclose(laplace_gradient(100, seed=5), laplace_gradient(100, seed=5))


class TestRealisticGradient:
    def test_compressible(self):
        report = fit_power_law_decay(realistic_gradient(100_000, seed=0))
        assert report.is_compressible

    def test_sparsity_parameter_controls_bulk(self):
        sparse = realistic_gradient(100_000, sparsity=0.99, seed=0)
        dense = realistic_gradient(100_000, sparsity=0.5, seed=0)
        cutoff = 5e-4
        assert np.mean(np.abs(sparse) < cutoff) > np.mean(np.abs(dense) < cutoff)

    def test_invalid_sparsity_rejected(self):
        with pytest.raises(ValueError):
            realistic_gradient(100, sparsity=1.0)

    @pytest.mark.parametrize("size", [1, 7, 10_000, 250_001])
    @pytest.mark.parametrize("seed", [0, 3, 2021])
    def test_equals_the_where_formula(self, size, seed):
        # Built in place, but bit-for-bit the three-draw ``np.where`` mixture.
        rng = np.random.default_rng(seed)
        is_bulk = rng.uniform(size=size) < 0.9
        bulk = rng.laplace(0.0, 1e-4, size=size)
        tail = rng.laplace(0.0, 5e-3, size=size)
        expected = np.where(is_bulk, bulk, tail)
        actual = realistic_gradient(size, seed=seed)
        assert actual.dtype == expected.dtype
        assert actual.tobytes() == expected.tobytes()


class TestModelSized:
    def test_known_dimensions(self):
        assert MODEL_DIMENSIONS["vgg16"] == 14_982_987
        assert MODEL_DIMENSIONS["lstm-ptb"] == 66_034_000

    def test_cap_respected(self):
        g = model_sized_gradient("vgg16", max_elements=10_000, seed=0)
        assert g.size == 10_000

    def test_small_model_uncapped(self):
        g = model_sized_gradient("resnet20", seed=0)
        assert g.size == MODEL_DIMENSIONS["resnet20"]

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            model_sized_gradient("bert")


class TestEvolvingGradients:
    def test_sparsity_increases_over_iterations(self):
        grads = evolving_gradients(50_000, 20, seed=0)
        assert len(grads) == 20
        cutoff = 1e-4
        early = np.mean(np.abs(grads[0]) < cutoff)
        late = np.mean(np.abs(grads[-1]) < cutoff)
        assert late > early

    def test_scale_decreases_over_iterations(self):
        grads = evolving_gradients(50_000, 20, seed=1)
        assert np.mean(np.abs(grads[-1])) < np.mean(np.abs(grads[0]))

    def test_invalid_iterations_rejected(self):
        with pytest.raises(ValueError):
            evolving_gradients(100, 0)
