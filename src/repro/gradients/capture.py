"""Gradient capture during (simulated) training.

Figures 2, 7 and 8 of the paper are produced by collecting the *uncompressed*
gradient vector from one worker at selected iterations and studying its
distribution and compressibility.  ``GradientCapture`` is a small hook object
the distributed trainer calls every iteration; it snapshots the gradient
(optionally L2-normalised, as the paper does for visual comparison across
iterations) at the requested iterations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class GradientCapture:
    """Collects gradient snapshots at chosen training iterations.

    Parameters
    ----------
    iterations:
        Iteration indices (0-based) at which to snapshot.  ``None`` captures
        every iteration (use only for short runs).
    normalize:
        Divide each snapshot by its L2 norm, as done in Appendix B.2 to make
        distributions comparable across iterations.
    max_elements:
        Optional cap on the stored vector length (a random but fixed subset of
        coordinates), to bound memory for large models.
    """

    iterations: set[int] | None = None
    normalize: bool = True
    max_elements: int | None = None
    seed: int = 0
    snapshots: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._subset: np.ndarray | None = None
        self._rng = np.random.default_rng(self.seed)

    def wants(self, iteration: int) -> bool:
        """Whether this capture is interested in ``iteration``."""
        return self.iterations is None or iteration in self.iterations

    def record(self, iteration: int, gradient: np.ndarray) -> None:
        """Snapshot ``gradient`` if ``iteration`` is one of the requested ones."""
        if not self.wants(iteration):
            return
        vec = np.asarray(gradient, dtype=np.float64).ravel()
        if self.max_elements is not None and vec.size > self.max_elements:
            if self._subset is None or self._subset.size != self.max_elements:
                self._subset = self._rng.choice(vec.size, size=self.max_elements, replace=False)
            vec = vec[self._subset]
        if self.normalize:
            norm = float(np.linalg.norm(vec))
            if norm > 0.0:
                vec = vec / norm
        self.snapshots[iteration] = vec.copy()
