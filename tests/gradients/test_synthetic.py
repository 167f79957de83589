"""Tests for the synthetic gradient generators (the realistic one and the test fixtures)."""

import tracemalloc

import numpy as np
import pytest

from repro.gradients import MODEL_DIMENSIONS, realistic_gradient
from repro.gradients.synthetic import _CHUNK
from repro.stats import Exponential, fit_power_law_decay
from tests.synthetic import (
    double_gamma_gradient,
    double_gpareto_gradient,
    evolving_gradients,
    laplace_gradient,
    model_sized_gradient,
    sid_gradient,
)


class TestSIDGenerators:
    def test_laplace_statistics(self):
        g = laplace_gradient(200_000, scale=1e-3, seed=0)
        assert abs(np.mean(g)) < 1e-4
        assert np.isclose(np.mean(np.abs(g)), 1e-3, rtol=0.05)
        fitted = Exponential.fit(np.abs(g))
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

    @pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf, -1e-4])
    @pytest.mark.parametrize("name", ["bulk_scale", "tail_scale"])
    def test_non_finite_or_negative_scale_rejected(self, name, scale):
        with pytest.raises(ValueError, match=name):
            realistic_gradient(100, seed=0, **{name: scale})

    @pytest.mark.parametrize("name", ["bulk_scale", "tail_scale"])
    def test_zero_scale_allowed(self, name):
        g = realistic_gradient(1000, seed=0, **{name: 0.0})
        assert np.all(np.isfinite(g))
        assert np.count_nonzero(g == 0.0) > 0

    @pytest.mark.parametrize(
        "size", [0, 1, 7, 10_000, 250_001, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 1]
    )
    @pytest.mark.parametrize("seed", [0, 3, 2021])
    @pytest.mark.parametrize(
        "sparsity, bulk_scale, tail_scale", [(0.9, 1e-4, 5e-3), (0.55, 3e-4, 2e-2)]
    )
    def test_equals_the_where_formula(self, size, seed, sparsity, bulk_scale, tail_scale):
        # Built in place from chunked draws, but bit-for-bit the three-draw
        # ``np.where`` mixture.
        rng = np.random.default_rng(seed)
        is_bulk = rng.uniform(size=size) < sparsity
        bulk = rng.laplace(0.0, bulk_scale, size=size)
        tail = rng.laplace(0.0, tail_scale, size=size)
        expected = np.where(is_bulk, bulk, tail)
        actual = realistic_gradient(
            size, sparsity=sparsity, bulk_scale=bulk_scale, tail_scale=tail_scale, seed=seed
        )
        assert actual.dtype == expected.dtype
        assert actual.tobytes() == expected.tobytes()

    def test_peak_allocation_stays_near_the_output(self):
        # The output, a bool mask and one chunk: three full-size draws read 2.13x.
        size = 1 << 22
        tracemalloc.start()
        try:
            g = realistic_gradient(size, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * g.nbytes


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
