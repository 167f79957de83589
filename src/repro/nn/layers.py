"""Dense layers, activations and containers with explicit forward/backward."""

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


class Tanh(Module):
    def __init__(self) -> None:
        super().__init__()
        self._output: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._output = np.tanh(x)
        return self._output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward called before forward")
        return grad_output * (1.0 - self._output**2)


class Sigmoid(Module):
    def __init__(self) -> None:
        super().__init__()
        self._output: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._output = 1.0 / (1.0 + np.exp(-x))
        return self._output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward called before forward")
        return grad_output * self._output * (1.0 - self._output)


class Dropout(Module):
    """Inverted dropout; disabled in eval mode.

    A stacked ``(W, ...)`` mask is one draw that consumes the generator's
    stream exactly as W unstacked draws in worker order would.
    """

    def __init__(self, p: float = 0.5, *, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = rng or np.random.default_rng(0)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.p == 0.0:
            self._mask = None
            return x
        self._mask = (self._rng.uniform(size=x.shape) >= self.p) / (1.0 - self.p)
        return x * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_output
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

    def append(self, module: Module) -> "Sequential":
        self.register_module(str(len(self._ordered)), module)
        self._ordered.append(module)
        return self

    def __len__(self) -> int:
        return len(self._ordered)

    def __getitem__(self, idx: int) -> Module:
        return self._ordered[idx]

    def forward(self, x: np.ndarray) -> np.ndarray:
        for module in self._ordered:
            x = module(x)
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        for module in reversed(self._ordered):
            grad_output = module.backward(grad_output)
        return grad_output
