"""Tests for the RedSync heuristic threshold compressor."""

import numpy as np
import pytest

from repro.compressors import RedSync


class TestRedSync:
    def test_selects_at_least_roughly_k_when_search_succeeds(self, medium_gradient):
        result = RedSync().compress(medium_gradient, 0.01)
        k = int(0.01 * medium_gradient.size)
        # RedSync stops as soon as it selects >= k, so it overshoots but not
        # by more than a shrink step's worth.
        assert result.achieved_k >= k * 0.5

    def test_quality_deviates_from_target(self):
        # The paper's point: RedSync's achieved ratio is unstable — at
        # aggressive ratios on large gradients it lands far from the target.
        from repro.gradients import realistic_gradient

        gradient = realistic_gradient(200_000, seed=1)
        qualities = [RedSync().compress(gradient, r).estimation_quality for r in (0.1, 0.01, 0.001)]
        assert max(abs(q - 1.0) for q in qualities) > 0.5

    def test_iteration_budget_respected(self, medium_gradient):
        result = RedSync(max_search_iters=3).compress(medium_gradient, 0.1)
        # Two reduces for mean and max, then one per probe iteration.
        probes = sum(op.op == "reduce" for op in result.ops) - 2
        assert 1 <= probes <= 3

    def test_constant_vector_degenerate_path(self):
        g = np.ones(1000)
        result = RedSync().compress(g, 0.1)
        assert result.achieved_k == 1000  # everything sits at the mean

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            RedSync(max_search_iters=0)
        with pytest.raises(ValueError):
            RedSync(shrink_factor=1.0)

    def test_ops_include_probe_reductions(self, small_gradient):
        result = RedSync().compress(small_gradient, 0.01)
        reduce_ops = [op for op in result.ops if op.op == "reduce"]
        assert len(reduce_ops) >= 3
