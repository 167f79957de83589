"""Tests for the exact Top-k and no-compression baselines."""

import numpy as np
import pytest

from repro.compressors import NoCompression, TopK


class TestTopK:
    def test_selects_largest_magnitudes(self):
        g = np.array([0.1, -5.0, 2.0, 0.3, -1.0, 4.0])
        result = TopK().compress(g, 0.5)  # k = 3
        kept = set(result.sparse.indices.tolist())
        assert kept == {1, 5, 2}
        assert result.threshold == pytest.approx(2.0)

    def test_keeps_exact_count(self, medium_gradient):
        for ratio in (0.1, 0.01, 0.001):
            result = TopK().compress(medium_gradient, ratio)
            assert result.achieved_k == max(1, int(round(ratio * medium_gradient.size)))
            assert result.estimation_quality == pytest.approx(1.0, rel=0.01)

    def test_ratio_one_keeps_everything(self, small_gradient):
        result = TopK().compress(small_gradient, 1.0)
        assert result.achieved_k == small_gradient.size

    def test_reconstruction_is_best_k_approximation(self, small_gradient):
        ratio = 0.05
        result = TopK().compress(small_gradient, ratio)
        error = np.linalg.norm(result.sparse.to_dense() - small_gradient)
        # Any other selection of the same size has error >= the Top-k error.
        rng = np.random.default_rng(0)
        random_idx = rng.choice(small_gradient.size, size=result.achieved_k, replace=False)
        random_dense = np.zeros_like(small_gradient)
        random_dense[random_idx] = small_gradient[random_idx]
        assert error <= np.linalg.norm(random_dense - small_gradient) + 1e-12

    def test_ops_contain_topk_select(self, small_gradient):
        result = TopK().compress(small_gradient, 0.01)
        assert any(op.op == "topk_select" and op.size == small_gradient.size for op in result.ops)


class TestNoCompression:
    def test_identity(self, small_gradient):
        result = NoCompression().compress(small_gradient, 1.0)
        assert result.achieved_k == small_gradient.size
        assert np.allclose(result.sparse.to_dense(), small_gradient)
        assert result.metadata["dense"] is True

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            NoCompression().compress(np.array([]), 1.0)
