"""Dense layers, the ReLU activation and containers with explicit forward/backward."""

from __future__ import annotations

import numpy as np

from . import init
from .module import Module, Parameter


class Linear(Module):
    """Fully connected layer ``y = x W^T + b``."""

    def __init__(self, in_features: int, out_features: int, *, bias: bool = True, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_normal((out_features, in_features), in_features, rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None
        self._input: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input = x
        out = x @ self.weight.data.T
        if self.bias is not None:
            out = out + self.bias.data
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise RuntimeError("backward called before forward")
        x = self._input
        self.weight.accumulate(grad_output.swapaxes(-1, -2) @ x)
        if self.bias is not None:
            self.bias.accumulate(grad_output.sum(axis=-2))
        return grad_output @ self.weight.data


class ReLU(Module):
    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0.0
        return x * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_output * self._mask


class Flatten(Module):
    """Flatten every dimension after the batch dimension (and the worker axis, if stacked)."""

    def __init__(self) -> None:
        super().__init__()
        self._input_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input_shape = x.shape
        keep = len(self.worker_axes(x)) + 1
        return x.reshape(*x.shape[:keep], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError("backward called before forward")
        return grad_output.reshape(self._input_shape)


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._ordered: list[Module] = []
        for idx, module in enumerate(modules):
            self.register_module(str(idx), module)
            self._ordered.append(module)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for module in self._ordered:
            x = module(x)
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        for module in reversed(self._ordered):
            grad_output = module.backward(grad_output)
        return grad_output
