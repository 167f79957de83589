"""Tests for goodness-of-fit diagnostics."""

import numpy as np
import pytest

from repro.stats.distributions import Laplace
from repro.stats.goodness import (
    empirical_cdf,
    evaluate_fit,
    ks_statistic,
    log_likelihood,
    tail_quantile_relative_error,
)
from tests.synthetic import draw


class TestEmpirical:
    def test_empirical_cdf_monotone(self, rng):
        xs, probs = empirical_cdf(rng.normal(size=1000))
        assert np.all(np.diff(xs) >= 0)
        assert np.all(np.diff(probs) > 0)
        assert probs[-1] == pytest.approx(1.0)

    def test_empirical_cdf_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf(np.array([]))


class TestKS:
    def test_ks_small_for_correct_model(self, rng):
        dist = Laplace(scale=0.5)
        sample = draw(dist, 20_000, rng)
        assert ks_statistic(sample, dist.cdf) < 0.02

    def test_ks_large_for_wrong_model(self, rng):
        sample = rng.normal(0.0, 5.0, size=20_000)
        dist = Laplace(scale=0.01)
        assert ks_statistic(sample, dist.cdf) > 0.3


class TestTailError:
    def test_zero_for_matching_distribution(self, rng):
        dist = Laplace(scale=1.0)
        sample = draw(dist, 500_000, rng)
        err = tail_quantile_relative_error(sample, dist.ppf, quantile=0.99)
        assert err < 0.05

    def test_detects_tail_mismatch(self, rng):
        sample = rng.normal(size=100_000)
        heavy = Laplace(scale=5.0)
        assert tail_quantile_relative_error(sample, heavy.ppf, quantile=0.999) > 1.0

    def test_invalid_quantile_rejected(self):
        with pytest.raises(ValueError):
            tail_quantile_relative_error(np.ones(10), lambda p: p, quantile=1.5)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            tail_quantile_relative_error(np.array([]), lambda p: p)

    def test_zero_sample_quantile_gives_the_absolute_model_quantile(self):
        # No relative error is defined against a zero quantile.
        assert tail_quantile_relative_error(np.zeros(100), lambda p: -0.25) == 0.25


class TestEvaluateFit:
    def test_bundles_all_metrics(self, rng):
        dist = Laplace(scale=0.3)
        sample = draw(dist, 20_000, rng)
        quality = evaluate_fit(sample, dist)
        assert quality.ks_statistic < 0.02
        assert quality.tail_quantile_rel_error < 0.2
        assert np.isfinite(quality.log_likelihood)

    def test_better_model_has_higher_likelihood(self, rng):
        true = Laplace(scale=0.3)
        sample = draw(true, 10_000, rng)
        good = log_likelihood(sample, true.pdf)
        bad = log_likelihood(sample, Laplace(scale=3.0).pdf)
        assert good > bad
