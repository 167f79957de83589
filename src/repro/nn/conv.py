"""Convolutional layers (im2col based) and the residual block used by the CNN proxies.

Each layer works over the trailing ``(channels, height, width)`` axes; every
axis before them is a batch axis, so a stacked ``(workers, batch, C, H, W)``
pass needs no separate code path.  Conv2d's parameter gradients are summed
over the batch axis only, one GEMM per worker.
"""

from __future__ import annotations

import numpy as np

from . import init
from .module import Module, Parameter


def _im2col(x: np.ndarray, kernel: int, stride: int, padding: int) -> tuple[np.ndarray, int, int]:
    """Unfold ``(N, C, H, W)`` into columns of shape ``(N, out_h, out_w, C * k * k)``."""
    n, c, h, w = x.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (h + 2 * padding - kernel) // stride + 1
    out_w = (w + 2 * padding - kernel) // stride + 1
    shape = (n, c, out_h, out_w, kernel, kernel)
    strides = (
        x.strides[0],
        x.strides[1],
        x.strides[2] * stride,
        x.strides[3] * stride,
        x.strides[2],
        x.strides[3],
    )
    windows = np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n, out_h, out_w, c * kernel * kernel)
    return np.ascontiguousarray(cols), out_h, out_w


def _col2im(
    cols: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold column gradients back to the padded input and crop the padding."""
    n, c, h, w = input_shape
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=np.float64)
    out_h = (h + 2 * padding - kernel) // stride + 1
    out_w = (w + 2 * padding - kernel) // stride + 1
    cols = cols.reshape(n, out_h, out_w, c, kernel, kernel)
    for i in range(kernel):
        for j in range(kernel):
            padded[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride] += cols[:, :, :, :, i, j].transpose(
                0, 3, 1, 2
            )
    if padding:
        return padded[:, :, padding : padding + h, padding : padding + w]
    return padded


class Conv2d(Module):
    """2-D convolution with square kernels, implemented via im2col + matmul."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: int = 1,
        *,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(init.kaiming_normal((out_channels, fan_in), fan_in, rng))
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None
        self._cols: np.ndarray | None = None
        self._input_shape: tuple[int, int, int, int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        *batch, c, h, w = x.shape
        cols, out_h, out_w = _im2col(
            x.reshape(-1, c, h, w), self.kernel_size, self.stride, self.padding
        )
        cols = cols.reshape(*batch, out_h, out_w, cols.shape[-1])
        self._cols = cols
        self._input_shape = x.shape
        out = cols @ self.weight.data.T  # (..., N, out_h, out_w, out_channels)
        if self.bias is not None:
            out = out + self.bias.data
        n = out.ndim  # channels last -> channels before (out_h, out_w)
        return out.transpose(*range(n - 3), n - 1, n - 3, n - 2)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cols is None or self._input_shape is None:
            raise RuntimeError("backward called before forward")
        n = grad_output.ndim
        grad = grad_output.transpose(*range(n - 3), n - 2, n - 1, n - 3)  # (..., N, out_h, out_w, C)
        out_h, out_w = grad.shape[-3:-1]
        workers = self._input_shape[:-4]
        grad_2d = grad.reshape(*workers, -1, self.out_channels)
        cols_2d = self._cols.reshape(*workers, -1, self._cols.shape[-1])
        self.weight.accumulate(grad_2d.swapaxes(-1, -2) @ cols_2d)
        if self.bias is not None:
            self.bias.accumulate(grad_2d.sum(axis=-2))
        grad_cols = grad_2d @ self.weight.data
        grad_cols = grad_cols.reshape(-1, out_h, out_w, grad_cols.shape[-1])
        c, h, w = self._input_shape[-3:]
        grad_input = _col2im(
            grad_cols, (grad_cols.shape[0], c, h, w), self.kernel_size, self.stride, self.padding
        )
        return grad_input.reshape(self._input_shape)


class MaxPool2d(Module):
    """Non-overlapping max pooling with square windows."""

    def __init__(self, kernel_size: int = 2) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self._argmax: np.ndarray | None = None
        self._input_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        *lead, h, w = x.shape
        k = self.kernel_size
        if h % k or w % k:
            raise ValueError(f"input spatial dims ({h}x{w}) must be divisible by kernel_size {k}")
        self._input_shape = x.shape
        windows = x.reshape(*lead, h // k, k, w // k, k).swapaxes(-3, -2)
        reshaped = windows.reshape(*lead, h // k, w // k, k * k)
        self._argmax = reshaped.argmax(axis=-1)
        return reshaped.max(axis=-1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._argmax is None or self._input_shape is None:
            raise RuntimeError("backward called before forward")
        *lead, h, w = self._input_shape
        k = self.kernel_size
        out_h, out_w = h // k, w // k
        grad_windows = np.zeros((self._argmax.size, k * k), dtype=np.float64)
        grad_windows[np.arange(self._argmax.size), self._argmax.ravel()] = grad_output.ravel()
        windows = grad_windows.reshape(*lead, out_h, out_w, k, k).swapaxes(-3, -2)
        return windows.reshape(self._input_shape)


class GlobalAvgPool2d(Module):
    """Average over the spatial dimensions, producing ``(..., N, C)``."""

    def __init__(self) -> None:
        super().__init__()
        self._input_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input_shape = x.shape
        return x.mean(axis=(-2, -1))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError("backward called before forward")
        h, w = self._input_shape[-2:]
        return np.broadcast_to(grad_output[..., None, None], self._input_shape) / (h * w)


class ResidualBlock(Module):
    """Two 3x3 convolutions with a ReLU and an identity skip connection.

    The channel count is preserved so the skip needs no projection — enough to
    give the ResNet proxy genuinely residual gradient structure without the
    full batch-norm machinery.
    """

    def __init__(self, channels: int, *, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.conv1 = Conv2d(channels, channels, 3, 1, 1, rng=rng)
        self.conv2 = Conv2d(channels, channels, 3, 1, 1, rng=rng)
        self._relu_mask1: np.ndarray | None = None
        self._relu_mask_out: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        h = self.conv1(x)
        self._relu_mask1 = h > 0.0
        h = h * self._relu_mask1
        h = self.conv2(h)
        out = h + x
        self._relu_mask_out = out > 0.0
        return out * self._relu_mask_out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._relu_mask1 is None or self._relu_mask_out is None:
            raise RuntimeError("backward called before forward")
        grad = grad_output * self._relu_mask_out
        grad_branch = self.conv2.backward(grad)
        grad_branch = grad_branch * self._relu_mask1
        grad_branch = self.conv1.backward(grad_branch)
        return grad_branch + grad
