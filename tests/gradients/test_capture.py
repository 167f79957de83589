"""Tests for the gradient capture hook."""

import numpy as np

from repro.gradients import GradientCapture


class TestGradientCapture:
    def test_records_only_requested_iterations(self, rng):
        capture = GradientCapture(iterations={2, 5})
        for i in range(8):
            capture.record(i, rng.normal(size=100))
        assert sorted(capture.snapshots) == [2, 5]

    def test_records_everything_when_unrestricted(self, rng):
        capture = GradientCapture(iterations=None)
        for i in range(3):
            capture.record(i, rng.normal(size=10))
        assert sorted(capture.snapshots) == [0, 1, 2]

    def test_normalization(self, rng):
        capture = GradientCapture(iterations={0}, normalize=True)
        capture.record(0, rng.normal(size=50) * 100.0)
        assert np.isclose(np.linalg.norm(capture.snapshots[0]), 1.0)

    def test_no_normalization_option(self):
        capture = GradientCapture(iterations={0}, normalize=False)
        grad = np.array([3.0, 4.0])
        capture.record(0, grad)
        assert np.allclose(capture.snapshots[0], grad)

    def test_max_elements_subsampling_is_consistent(self, rng):
        capture = GradientCapture(iterations={0, 1}, max_elements=20, normalize=False, seed=3)
        base = rng.normal(size=100)
        capture.record(0, base)
        capture.record(1, base)
        assert capture.snapshots[0].size == 20
        # The same coordinate subset is reused across snapshots.
        assert np.allclose(capture.snapshots[0], capture.snapshots[1])

    def test_wants_helper(self):
        capture = GradientCapture(iterations={1})
        assert capture.wants(1) and not capture.wants(2)
