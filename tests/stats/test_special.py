"""Tests for repro.stats.special."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special as scipy_special
from scipy import stats as sps

from repro.stats import special


class TestBasicFunctions:
    @pytest.mark.parametrize(
        "wrapper, scipy_name, args",
        [
            ("log_gamma", "gammaln", (0.37,)),
            ("log_gamma", "gammaln", (np.array([0.2, 1.0, 7.5]),)),
            ("digamma", "digamma", (2.7,)),
            ("reg_lower_incomplete_gamma", "gammainc", (0.8, np.array([0.1, 1.3, 9.0]))),
            ("inv_reg_lower_incomplete_gamma", "gammaincinv", (0.8, 0.95)),
            ("erfinv", "erfinv", (0.99,)),
        ],
    )
    def test_wrapper_returns_scipys_value(self, wrapper, scipy_name, args):
        expected = getattr(scipy_special, scipy_name)(*args)
        assert np.all(getattr(special, wrapper)(*args) == expected)

    def test_log_gamma_matches_factorial(self):
        # Gamma(n) = (n-1)! for integer n.
        assert np.isclose(special.log_gamma(5.0), np.log(24.0))

    def test_digamma_recurrence(self):
        # psi(x+1) = psi(x) + 1/x
        x = 2.7
        assert np.isclose(special.digamma(x + 1.0), special.digamma(x) + 1.0 / x)

    def test_incomplete_gamma_roundtrip(self):
        a, p = 0.8, 0.95
        x = special.inv_reg_lower_incomplete_gamma(a, p)
        assert np.isclose(special.reg_lower_incomplete_gamma(a, x), p)


class TestGammaQuantiles:
    def test_exact_quantile_matches_scipy(self):
        alpha, beta, delta = 0.7, 2.0, 0.01
        eta = special.gamma_quantile_exact(alpha, beta, delta)
        assert np.isclose(eta, sps.gamma.ppf(1.0 - delta, alpha, scale=beta), rtol=1e-10)

    def test_approx_upper_bounds_exact_for_small_alpha(self):
        alpha, beta, delta = 0.6, 1.5, 0.001
        exact = special.gamma_quantile_exact(alpha, beta, delta)
        approx = special.gamma_quantile_upper_tail_approx(alpha, beta, delta)
        assert approx >= exact
        # ... and is reasonably tight at aggressive ratios.
        assert approx <= exact * 1.5

    def test_approx_exact_at_alpha_one(self):
        # alpha=1 gamma is exponential; the approximation is exact there.
        beta, delta = 3.0, 0.01
        exact = special.gamma_quantile_exact(1.0, beta, delta)
        approx = special.gamma_quantile_upper_tail_approx(1.0, beta, delta)
        assert np.isclose(exact, approx, rtol=1e-9)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.1, 1.5])
    def test_invalid_delta_rejected(self, delta):
        with pytest.raises(ValueError):
            special.gamma_quantile_upper_tail_approx(0.5, 1.0, delta)
        with pytest.raises(ValueError):
            special.gamma_quantile_exact(0.5, 1.0, delta)

    @pytest.mark.parametrize(
        "alpha, beta, delta, name",
        [
            (0.0, 1.0, 0.1, "alpha"),
            (-0.5, 1.0, 0.1, "alpha"),
            (np.inf, 1.0, 0.1, "alpha"),
            (0.5, 0.0, 0.1, "beta"),
            (0.5, -1.0, 0.1, "beta"),
            (0.5, 1.0, np.nan, "delta"),
        ],
    )
    @pytest.mark.parametrize(
        "quantile", [special.gamma_quantile_upper_tail_approx, special.gamma_quantile_exact]
    )
    def test_invalid_params_rejected(self, quantile, alpha, beta, delta, name):
        with pytest.raises(ValueError, match=name):
            quantile(alpha, beta, delta)

    def test_an_overflowing_fit_keeps_the_formula(self):
        # Gamma.fit's moments overflow near the float limit: the mean over the
        # clipped shape gives an infinite scale, an infinite mean a NaN shape
        # and scale.  The batched SIDCo fit prices both with the formula.
        assert special.gamma_quantile_upper_tail_approx(1e-6, np.inf, 0.3) == -np.inf
        assert special.gamma_quantile_exact(0.5, np.inf, 0.3) == np.inf
        assert np.isnan(special.gamma_quantile_upper_tail_approx(np.nan, np.nan, 0.3))
        assert np.isnan(special.gamma_quantile_exact(np.nan, np.nan, 0.3))


class TestShapeEstimators:
    def test_minka_close_to_mle(self):
        rng = np.random.default_rng(0)
        sample = rng.gamma(0.7, 2.0, size=200_000)
        s = np.log(sample.mean()) - np.log(sample).mean()
        minka = special.minka_gamma_shape(s)
        mle = special.gamma_shape_mle(sample.mean(), np.log(sample).mean())
        assert abs(minka - mle) / mle < 0.02
        assert abs(mle - 0.7) < 0.05

    def test_degenerate_sample_capped(self):
        assert special.minka_gamma_shape(0.0) == pytest.approx(1e6)
        assert special.gamma_shape_mle(1.0, np.log(1.0)) == pytest.approx(1e6)


_IMPORT_FLOOR = """
import sys
import repro, repro.compressors.registry, repro.distributed, repro.gradients
import repro.harness, repro.pipeline, repro.stats
from repro.compressors.registry import create_compressor
from repro.gradients import realistic_gradient

gradient = realistic_gradient(20_000, seed=0)
for name in ("topk", "dgc", "sidco-e"):
    create_compressor(name).compress(gradient, 0.01)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
repro.stats.special.erfinv(0.5)
print("scipy.special" in sys.modules)
"""


def test_scipy_stays_unloaded_until_a_special_function_runs():
    # A fresh interpreter: pytest itself (and this file) has SciPy loaded.
    src = Path(special.__file__).resolve().parents[2]
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    run = subprocess.run(
        [sys.executable, "-c", _IMPORT_FLOOR], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.split() == ["[]", "True"]
