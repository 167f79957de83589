"""The in-memory array dataset every synthetic task builds on."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ArrayDataset:
    """An in-memory dataset of ``(inputs, targets)`` arrays sharing a leading dimension."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        if len(self.inputs) != len(self.targets):
            raise ValueError("inputs and targets must have the same number of examples")
        if len(self.inputs) == 0:
            raise ValueError("dataset cannot be empty")

    def __len__(self) -> int:
        return len(self.inputs)

    def subset(self, indices: np.ndarray) -> "ArrayDataset":
        return ArrayDataset(inputs=self.inputs[indices], targets=self.targets[indices])
