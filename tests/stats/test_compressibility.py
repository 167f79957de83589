"""Tests for the compressibility diagnostics (Definition 1 / Figure 7)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gradients import realistic_gradient
from repro.stats.compressibility import (
    fit_power_law_decay,
    sorted_magnitudes,
    sparsification_error_curve,
)


class TestSortedMagnitudes:
    def test_descending_and_absolute(self):
        g = np.array([-3.0, 1.0, 2.0, -0.5])
        mags = sorted_magnitudes(g)
        assert np.allclose(mags, [3.0, 2.0, 1.0, 0.5])


def _sigma(g, k):
    """``sigma_k(g)``, read off the curve at one ``k``."""
    return sparsification_error_curve(g, [k])[0]


class TestSparsificationError:
    def test_zero_when_keeping_everything(self):
        g = np.array([1.0, -2.0, 3.0])
        assert _sigma(g, 3) == 0.0
        assert _sigma(g, 10) == 0.0

    def test_full_norm_when_keeping_nothing(self):
        g = np.array([3.0, 4.0])
        assert np.isclose(_sigma(g, 0), 5.0)

    def test_matches_manual_topk(self):
        g = np.array([0.1, -5.0, 2.0, 0.3, -1.0])
        # keep top 2 -> drop {0.1, 0.3, 1.0}
        assert np.isclose(_sigma(g, 2), np.sqrt(0.01 + 0.09 + 1.0))

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            _sigma(np.ones(4), -1)

    def test_curve_matches_pointwise(self):
        rng = np.random.default_rng(0)
        g = rng.laplace(size=500)
        ks = [0, 5, 50, 499, 500]
        curve = sparsification_error_curve(g, ks)
        mags = np.sort(np.abs(g))  # ascending: the first d - k entries are dropped
        expected = [np.sqrt(np.sum(mags[: g.size - k] ** 2)) for k in ks]
        assert np.allclose(curve, expected)

    @given(st.integers(min_value=2, max_value=200))
    @settings(max_examples=30, deadline=None)
    def test_property_error_decreases_in_k(self, size):
        rng = np.random.default_rng(size)
        g = rng.normal(size=size)
        ks = np.arange(0, size + 1)
        curve = sparsification_error_curve(g, ks)
        assert np.all(np.diff(curve) <= 1e-12)
        assert curve[-1] == 0.0


class TestPowerLawFit:
    def test_detects_compressible_gradient(self):
        report = fit_power_law_decay(realistic_gradient(50_000, seed=0))
        assert report.is_compressible
        assert report.decay_exponent > 0.5
        assert report.dimension == 50_000

    def test_gaussian_vector_is_not_compressible(self):
        rng = np.random.default_rng(1)
        report = fit_power_law_decay(rng.normal(size=50_000))
        # An i.i.d. Gaussian has a very flat sorted-magnitude profile.
        assert report.decay_exponent < 0.5
        assert not report.is_compressible

    def test_exact_power_law_recovered(self):
        j = np.arange(1, 10_001, dtype=np.float64)
        g = 2.0 * j**-0.9
        report = fit_power_law_decay(g, head_fraction=1.0)
        assert np.isclose(report.decay_exponent, 0.9, atol=0.01)
        assert np.isclose(report.decay_constant, 2.0, rtol=0.05)
        assert report.r_squared > 0.999

    def test_too_small_sample_rejected(self):
        with pytest.raises(ValueError):
            fit_power_law_decay(np.ones(4))

    def test_invalid_head_fraction_rejected(self):
        with pytest.raises(ValueError):
            fit_power_law_decay(np.ones(100), head_fraction=0.0)
