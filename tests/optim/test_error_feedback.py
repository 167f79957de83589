"""Tests for the error-feedback (EC) memory."""

import numpy as np
import pytest

from repro.optim import ErrorFeedback
from repro.tensor import SparseGradient


def _residual(ef):
    """The stored residual, read through ``correct`` of a zero gradient."""
    return ef.correct(np.zeros(ef.dimension))


class TestErrorFeedback:
    def test_first_correction_is_identity(self):
        ef = ErrorFeedback(5)
        grad = np.arange(5, dtype=np.float64)
        assert np.allclose(ef.correct(grad), grad)

    def test_residual_added_next_iteration(self):
        ef = ErrorFeedback(4)
        grad = np.array([1.0, 2.0, 3.0, 4.0])
        corrected = ef.correct(grad)
        # transmit only the largest element
        sparse = SparseGradient(indices=np.array([3]), values=np.array([4.0]), dense_size=4)
        ef.update(corrected, sparse)
        assert np.allclose(_residual(ef), [1.0, 2.0, 3.0, 0.0])
        next_corrected = ef.correct(grad)
        assert np.allclose(next_corrected, [2.0, 4.0, 6.0, 4.0])

    def test_no_residual_when_everything_transmitted(self):
        ef = ErrorFeedback(3)
        grad = np.array([1.0, -2.0, 3.0])
        corrected = ef.correct(grad)
        ef.update(corrected, SparseGradient.from_mask(corrected, corrected != 0))
        assert np.allclose(_residual(ef), 0.0)

    def test_error_accumulates_until_transmitted(self):
        # A coordinate that is never selected keeps accumulating in memory, so
        # its corrected value grows linearly with iterations.
        ef = ErrorFeedback(2)
        grad = np.array([1.0, 0.1])
        sparse_first_only = SparseGradient(indices=np.array([0]), values=np.array([1.0]), dense_size=2)
        for _ in range(5):
            corrected = ef.correct(grad)
            ef.update(corrected, sparse_first_only)
        assert _residual(ef)[1] == pytest.approx(0.5)

    def test_dimension_mismatch_rejected(self):
        ef = ErrorFeedback(4)
        with pytest.raises(ValueError):
            ef.correct(np.zeros(5))
        with pytest.raises(ValueError):
            ef.update(np.zeros(4), SparseGradient(indices=np.array([0]), values=np.array([1.0]), dense_size=5))

    def test_invalid_dimension_rejected(self):
        with pytest.raises(ValueError):
            ErrorFeedback(0)
