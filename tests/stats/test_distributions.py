"""Tests for the sparsity-inducing distributions, including property-based checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.distributions import (
    DoubleGamma,
    DoubleGeneralizedPareto,
    Exponential,
    Gamma,
    GeneralizedPareto,
    Laplace,
)
from tests.synthetic import draw

ONE_SIDED = [
    Exponential(scale=0.5),
    Gamma(shape=0.7, scale=1.3),
    GeneralizedPareto(shape=0.2, scale=0.8),
    GeneralizedPareto(shape=-0.2, scale=0.8),
]

SYMMETRIC = [
    Laplace(scale=0.5),
    DoubleGamma(shape=0.7, scale=1.3),
    DoubleGeneralizedPareto(shape=0.2, scale=0.8),
]


@pytest.mark.parametrize("dist", ONE_SIDED + SYMMETRIC, ids=lambda d: type(d).__name__ + str(getattr(d, 'shape', '')))
class TestDistributionContracts:
    def test_cdf_monotone_and_bounded(self, dist):
        xs = np.linspace(-5.0, 5.0, 301)
        cdf = np.asarray(dist.cdf(xs))
        assert np.all(cdf >= -1e-12) and np.all(cdf <= 1.0 + 1e-12)
        assert np.all(np.diff(cdf) >= -1e-12)

    def test_ppf_inverts_cdf(self, dist):
        for p in (0.05, 0.3, 0.5, 0.9, 0.999):
            x = dist.ppf(p)
            assert np.isclose(float(dist.cdf(x)), p, atol=1e-8)

    def test_pdf_integrates_to_one(self, dist):
        # Integrate over a generous support numerically.
        upper = max(dist.ppf(0.99999), 1.0)
        lower = -upper if dist in SYMMETRIC or isinstance(dist, (Laplace, DoubleGamma, DoubleGeneralizedPareto)) else 0.0
        xs = np.linspace(lower, upper, 200_001)
        pdf = np.asarray(dist.pdf(xs))
        integral = np.trapezoid(pdf, xs)
        assert np.isclose(integral, 1.0, atol=5e-3)

    def test_sampling_matches_cdf(self, dist):
        rng = np.random.default_rng(0)
        sample = draw(dist, 100_000, rng)
        for p in (0.25, 0.5, 0.9):
            q = dist.ppf(p)
            assert abs(np.mean(sample <= q) - p) < 0.01

    def test_invalid_probability_rejected(self, dist):
        for p in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                dist.ppf(p)

    def test_pdf_and_cdf_keep_array_shape_and_return_floats_for_scalars(self, dist):
        xs = np.linspace(-2.0, 2.0, 12).reshape(3, 4)
        for fn in (dist.pdf, dist.cdf):
            out = fn(xs)
            assert out.shape == (3, 4)
            assert np.array_equal(out.ravel(), fn(xs.ravel()))
            assert isinstance(fn(0.7), float)
            assert fn(0.7) == fn(np.array([0.7]))[0]


@pytest.mark.parametrize(
    "build",
    [
        lambda: Exponential(scale=-1.0),
        lambda: Gamma(shape=0.0, scale=1.0),
        lambda: Gamma(shape=1.0, scale=-2.0),
        lambda: GeneralizedPareto(shape=0.1, scale=0.0),
        lambda: Laplace(scale=0.0),
        lambda: DoubleGamma(shape=-0.5, scale=1.0),
        lambda: DoubleGeneralizedPareto(shape=0.1, scale=-1.0),
    ],
    ids=["Exponential", "Gamma-shape", "Gamma-scale", "GeneralizedPareto", "Laplace", "DoubleGamma", "DoubleGeneralizedPareto"],
)
def test_nonpositive_parameters_rejected(build):
    with pytest.raises(ValueError, match="positive"):
        build()


class TestExponential:
    def test_fit_recovers_scale(self):
        rng = np.random.default_rng(1)
        sample = rng.exponential(0.37, size=100_000)
        fitted = Exponential.fit(sample)
        assert np.isclose(fitted.scale, 0.37, rtol=0.02)

    def test_threshold_for_ratio_matches_survival(self):
        dist = Exponential(scale=0.2)
        for delta in (0.1, 0.01, 0.001):
            eta = dist.threshold_for_ratio(delta)
            assert np.isclose(1.0 - dist.cdf(eta), delta, rtol=1e-9)

    def test_fit_rejects_all_zero_or_empty_sample(self):
        for values in (np.zeros(16), np.array([])):
            with pytest.raises(ValueError, match="all-zero or empty"):
                Exponential.fit(values)

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            Exponential(scale=0.0)
        with pytest.raises(ValueError):
            Exponential.fit(np.zeros(10))


class TestGamma:
    def test_fit_recovers_parameters(self):
        rng = np.random.default_rng(2)
        sample = rng.gamma(0.6, 2.5, size=200_000)
        fitted = Gamma.fit(sample)
        assert np.isclose(fitted.shape, 0.6, rtol=0.05)
        assert np.isclose(fitted.shape * fitted.scale, sample.mean(), rtol=0.02)

    def test_exact_mle_option(self):
        rng = np.random.default_rng(3)
        sample = rng.gamma(0.8, 1.0, size=100_000)
        closed = Gamma.fit(sample)
        exact = Gamma.fit(sample, exact_mle=True)
        assert abs(closed.shape - exact.shape) / exact.shape < 0.05

    def test_threshold_exact_vs_approximate(self):
        dist = Gamma(shape=0.9, scale=1.0)
        exact = dist.threshold_for_ratio(0.001, approximate=False)
        approx = dist.threshold_for_ratio(0.001, approximate=True)
        assert approx >= exact
        assert approx / exact < 1.3

    def test_rejects_all_zero_sample(self):
        with pytest.raises(ValueError):
            Gamma.fit(np.zeros(32))


class TestGeneralizedPareto:
    def test_fit_recovers_parameters(self):
        rng = np.random.default_rng(4)
        true = GeneralizedPareto(shape=0.25, scale=1.5)
        sample = draw(true, 300_000, rng)
        fitted = GeneralizedPareto.fit(sample)
        assert np.isclose(fitted.shape, 0.25, atol=0.03)
        assert np.isclose(fitted.scale, 1.5, rtol=0.05)

    def test_shape_zero_degrades_to_exponential(self):
        gp = GeneralizedPareto(shape=0.0, scale=0.7)
        exp = Exponential(scale=0.7)
        xs = np.linspace(0.0, 5.0, 101)
        assert np.allclose(gp.cdf(xs), exp.cdf(xs), atol=1e-9)

    def test_location_shifts_support(self):
        gp = GeneralizedPareto(shape=0.1, scale=1.0, loc=2.0)
        assert float(gp.cdf(1.9)) == 0.0
        assert float(gp.pdf(1.9)) == 0.0
        assert gp.ppf(0.5) > 2.0

    def test_shape_zero_density_and_samples_follow_exponential(self):
        gp = GeneralizedPareto(shape=0.0, scale=0.7, loc=0.2)
        exp = Exponential(scale=0.7)
        xs = np.linspace(0.0, 5.0, 101)
        assert np.allclose(gp.pdf(xs + 0.2), exp.pdf(xs), atol=1e-12)
        assert float(gp.pdf(0.1)) == 0.0
        sample = draw(gp, 100_000, np.random.default_rng(8))
        assert sample.min() >= 0.2
        for p in (0.25, 0.5, 0.9):
            assert abs(np.mean(sample <= gp.ppf(p)) - p) < 0.01

    def test_fit_requires_exceedances(self):
        with pytest.raises(ValueError):
            GeneralizedPareto.fit(np.array([1.0]), loc=0.0)

    def test_threshold_for_ratio_matches_survival(self):
        dist = GeneralizedPareto(shape=0.3, scale=0.5, loc=0.1)
        eta = dist.threshold_for_ratio(0.01)
        assert np.isclose(1.0 - float(dist.cdf(eta)), 0.01, rtol=1e-8)


class TestSymmetricWrappers:
    @pytest.mark.parametrize("dist", SYMMETRIC, ids=lambda d: type(d).__name__)
    def test_symmetry_of_pdf(self, dist):
        xs = np.linspace(0.1, 3.0, 50)
        assert np.allclose(dist.pdf(xs), dist.pdf(-xs))

    @pytest.mark.parametrize("dist", SYMMETRIC, ids=lambda d: type(d).__name__)
    def test_median_is_zero(self, dist):
        assert abs(dist.ppf(0.5)) < 1e-9

    def test_laplace_scale_is_the_exponential_fit_of_magnitudes(self):
        rng = np.random.default_rng(5)
        sample = rng.laplace(0.0, 0.4, size=200_000)
        fitted = Exponential.fit(np.abs(sample))
        assert np.isclose(fitted.scale, 0.4, rtol=0.02)

    def test_fit_flattens_a_multidimensional_sample(self):
        sample = np.abs(np.random.default_rng(9).laplace(0.0, 0.3, size=(40, 25)))
        assert Exponential.fit(sample) == Exponential.fit(sample.ravel())

    def test_double_gamma_absolute_is_gamma(self):
        d = DoubleGamma(shape=0.5, scale=2.0)
        assert isinstance(d.absolute, Gamma)
        assert d.absolute.shape == 0.5

    def test_double_gp_shape_is_the_gp_fit_of_magnitudes(self):
        rng = np.random.default_rng(6)
        true = DoubleGeneralizedPareto(shape=0.2, scale=1.0)
        fitted = GeneralizedPareto.fit(np.abs(draw(true, 300_000, rng)))
        assert np.isclose(fitted.shape, 0.2, atol=0.04)


class TestPropertyBased:
    @given(scale=st.floats(min_value=1e-4, max_value=1e3), p=st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    @settings(max_examples=60, deadline=None)
    def test_exponential_ppf_cdf_roundtrip(self, scale, p):
        dist = Exponential(scale=scale)
        assert np.isclose(float(dist.cdf(dist.ppf(p))), p, atol=1e-7)

    @given(
        shape=st.floats(min_value=-0.45, max_value=0.45),
        scale=st.floats(min_value=1e-3, max_value=1e2),
        p=st.floats(min_value=1e-5, max_value=1.0 - 1e-5),
    )
    @settings(max_examples=60, deadline=None)
    def test_gpareto_ppf_cdf_roundtrip(self, shape, scale, p):
        dist = GeneralizedPareto(shape=shape, scale=scale)
        assert np.isclose(float(dist.cdf(dist.ppf(p))), p, atol=1e-6)

    @given(
        scale=st.floats(min_value=1e-3, max_value=10.0),
        delta=st.floats(min_value=1e-5, max_value=0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_exponential_threshold_keeps_delta_mass(self, scale, delta):
        dist = Exponential(scale=scale)
        eta = dist.threshold_for_ratio(delta)
        assert np.isclose(1.0 - float(dist.cdf(eta)), delta, rtol=1e-6)
