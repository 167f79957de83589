"""Tests for the closed-form SID fitters and threshold helper."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.distributions import Exponential, Gamma, GeneralizedPareto
from repro.stats.fitting import (
    VALID_SIDS,
    estimate_threshold,
    fit_absolute,
    threshold_from_fit,
    validate_sid,
)


class TestValidateSid:
    @pytest.mark.parametrize("sid", VALID_SIDS)
    def test_accepts_known(self, sid):
        assert validate_sid(sid) == sid

    @pytest.mark.parametrize("sid", ["gaussian", "laplace", "", "EXPONENTIAL"])
    def test_rejects_unknown(self, sid):
        with pytest.raises(ValueError):
            validate_sid(sid)


class TestFitAbsolute:
    def test_exponential_fit_type_and_stats(self, rng):
        sample = rng.exponential(0.1, size=50_000)
        fit = fit_absolute(sample, "exponential")
        assert isinstance(fit.distribution, Exponential)
        assert fit.sample_size == 50_000
        assert np.isclose(fit.sample_mean, sample.mean())
        assert np.isclose(fit.distribution.scale, sample.mean())

    def test_gamma_fit_type(self, rng):
        sample = rng.gamma(0.5, 1.0, size=50_000)
        fit = fit_absolute(sample, "gamma")
        assert isinstance(fit.distribution, Gamma)
        assert 0.4 < fit.distribution.shape < 0.6

    def test_gpareto_fit_carries_location(self, rng):
        sample = 2.0 + rng.exponential(1.0, size=50_000)
        fit = fit_absolute(sample, "gpareto", loc=2.0)
        assert isinstance(fit.distribution, GeneralizedPareto)
        assert fit.distribution.loc == 2.0

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            fit_absolute(np.array([]), "exponential")

    def test_exponential_fit_with_loc_shifts(self, rng):
        base = rng.exponential(0.5, size=100_000)
        shifted = base + 3.0
        fit = fit_absolute(shifted, "exponential", loc=3.0)
        assert np.isclose(fit.distribution.scale, 0.5, rtol=0.02)


class TestThresholds:
    def test_threshold_from_exponential_fit_adds_loc(self, rng):
        sample = 1.0 + rng.exponential(0.2, size=100_000)
        fit = fit_absolute(sample, "exponential", loc=1.0)
        eta = threshold_from_fit(fit, 0.01, loc=1.0)
        assert eta > 1.0
        # Empirically ~1% of the sample should exceed the threshold.
        assert abs(np.mean(sample >= eta) - 0.01) < 0.005

    def test_estimate_threshold_keeps_target_fraction(self, rng):
        for sid in VALID_SIDS:
            sample = rng.exponential(1.0, size=200_000)
            eta = estimate_threshold(sample, 0.05, sid)
            kept = np.mean(sample >= eta)
            assert 0.02 < kept < 0.10, f"{sid} kept {kept}"

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.2, 2.0])
    def test_invalid_delta_rejected(self, delta, rng):
        fit = fit_absolute(rng.exponential(1.0, size=100), "exponential")
        with pytest.raises(ValueError):
            threshold_from_fit(fit, delta)

    @given(
        delta=st.floats(min_value=1e-4, max_value=0.3),
        scale=st.floats(min_value=1e-3, max_value=10.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_threshold_positive_and_decreasing_in_delta(self, delta, scale):
        rng = np.random.default_rng(0)
        sample = rng.exponential(scale, size=20_000)
        eta = estimate_threshold(sample, delta, "exponential")
        eta_larger_delta = estimate_threshold(sample, min(delta * 2, 0.5), "exponential")
        assert eta > 0.0
        assert eta >= eta_larger_delta  # keeping more elements means a lower threshold
