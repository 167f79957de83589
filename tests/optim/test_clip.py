"""Tests for gradient clipping."""

import numpy as np
import pytest

from repro.optim import clip_flat_by_norm


class TestClipFlat:
    def test_no_clipping_below_threshold(self):
        grad = np.array([0.3, 0.4])
        clipped, norm = clip_flat_by_norm(grad, 1.0)
        assert norm == pytest.approx(0.5)
        assert np.allclose(clipped, grad)

    def test_clipping_rescales_to_max_norm(self):
        grad = np.array([3.0, 4.0])
        clipped, norm = clip_flat_by_norm(grad, 1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(clipped) == pytest.approx(1.0)
        # Direction preserved.
        assert clipped[1] / clipped[0] == pytest.approx(4.0 / 3.0)

    def test_invalid_max_norm_rejected(self):
        with pytest.raises(ValueError):
            clip_flat_by_norm(np.ones(3), 0.0)
