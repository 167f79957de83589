"""Tests for loss functions and metrics."""

import numpy as np
import pytest

from repro.nn import accuracy, cross_entropy, perplexity, softmax


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        probs = softmax(rng.normal(size=(5, 7)))
        assert np.allclose(probs.sum(axis=-1), 1.0)

    def test_stable_for_large_logits(self):
        probs = softmax(np.array([[1000.0, 1000.0]]))
        assert np.allclose(probs, 0.5)


class TestCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        loss, grad = cross_entropy(logits, np.array([0, 1]))
        assert loss < 1e-6
        assert np.allclose(grad, 0.0, atol=1e-6)

    def test_uniform_prediction_loss_is_log_c(self):
        logits = np.zeros((4, 10))
        loss, _ = cross_entropy(logits, np.zeros(4, dtype=int))
        assert loss == pytest.approx(np.log(10))

    def test_gradient_matches_finite_differences(self, rng):
        logits = rng.normal(size=(3, 5))
        targets = rng.integers(0, 5, size=3)
        loss, grad = cross_entropy(logits, targets)
        eps = 1e-6
        for i, j in [(0, 0), (1, 3), (2, 4)]:
            perturbed = logits.copy()
            perturbed[i, j] += eps
            loss_plus, _ = cross_entropy(perturbed, targets)
            assert (loss_plus - loss) / eps == pytest.approx(grad[i, j], abs=1e-4)

    def test_sequence_logits_supported(self, rng):
        logits = rng.normal(size=(2, 4, 6))
        targets = rng.integers(0, 6, size=(2, 4))
        loss, grad = cross_entropy(logits, targets)
        assert grad.shape == logits.shape
        assert loss > 0.0

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            cross_entropy(rng.normal(size=(2, 3)), np.zeros((3,), dtype=int))

    def test_target_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            cross_entropy(np.zeros((2, 3)), np.array([0, 3]))


class TestMetrics:
    def test_accuracy(self):
        logits = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
        assert accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)

    def test_perplexity_is_exp_loss(self):
        assert perplexity(np.log(100.0)) == pytest.approx(100.0)

    def test_perplexity_saturates_instead_of_overflowing(self):
        assert np.isfinite(perplexity(1e6))
