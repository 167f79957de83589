"""Convolutional layers (im2col based) and the residual block used by the CNN proxies.

Each layer works over the trailing ``(channels, height, width)`` axes; every
axis before them is a batch axis, so a stacked ``(workers, batch, C, H, W)``
pass needs no separate code path.  Conv2d's parameter gradients are summed
over the batch axis only, one GEMM per worker.

The layers take and return channels-first shapes but keep their buffers
channels-last, ``(..., H, W, C)``: this path is bound by memory layout, not
FLOPs.  Conv2d's output, the pool's output and every input gradient are
channels-first views of channels-last memory, so the next layer reads
contiguous channels.  The GEMMs see the operands of the channels-first code,
so every bit is the same, save one: where a pooling window's maximum is a
zero held with both signs, the pool returns the first, whose sign may differ
from ``ndarray.max``'s pick.
"""

from __future__ import annotations

import numpy as np

from . import init
from .module import Module, Parameter


def _im2col(x: np.ndarray, kernel: int, stride: int, padding: int) -> np.ndarray:
    """Unfold ``(..., C, H, W)`` into columns of shape ``(..., out_h, out_w, C * k * k)``."""
    *batch, c, h, w = x.shape
    out_h = (h + 2 * padding - kernel) // stride + 1
    out_w = (w + 2 * padding - kernel) // stride + 1
    padded = np.zeros((*batch, h + 2 * padding, w + 2 * padding, c), dtype=x.dtype)
    padded[..., padding : padding + h, padding : padding + w, :] = np.moveaxis(x, -3, -1)
    cols = np.empty((*batch, out_h, out_w, c, kernel, kernel), dtype=x.dtype)
    for i in range(kernel):
        for j in range(kernel):
            cols[..., i, j] = padded[..., i : i + stride * out_h : stride, j : j + stride * out_w : stride, :]
    return cols.reshape(*batch, out_h, out_w, c * kernel * kernel)


def _col2im(cols: np.ndarray, input_shape: tuple[int, ...], kernel: int, stride: int, padding: int) -> np.ndarray:
    """Fold ``(..., out_h, out_w, C * k * k)`` column gradients back onto the input.

    Every element gathers its contributions in (i, j) kernel order into a
    padded channels-last buffer; the cropped channels-first view is returned.
    """
    *batch, c, h, w = input_shape
    out_h, out_w = cols.shape[-3:-1]
    cols = cols.reshape(*batch, out_h, out_w, c, kernel, kernel)
    padded = np.zeros((*batch, h + 2 * padding, w + 2 * padding, c), dtype=np.float64)
    for i in range(kernel):
        for j in range(kernel):
            padded[..., i : i + stride * out_h : stride, j : j + stride * out_w : stride, :] += cols[..., i, j]
    return np.moveaxis(padded[..., padding : padding + h, padding : padding + w, :], -1, -3)


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
        if min(in_channels, out_channels, kernel_size, stride) < 1 or padding < 0:
            raise ValueError(
                f"Conv2d needs channels, kernel_size and stride >= 1 and padding >= 0, got "
                f"{in_channels}->{out_channels} channels, kernel_size={kernel_size}, "
                f"stride={stride}, padding={padding}"
            )
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
        self._input_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        *_, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(f"Conv2d expects {self.in_channels} input channels, got shape {x.shape}")
        if min(h, w) + 2 * self.padding < self.kernel_size:
            raise ValueError(
                f"input ({h}x{w}, padding {self.padding}) is smaller than kernel_size {self.kernel_size}"
            )
        self._cols = _im2col(x, self.kernel_size, self.stride, self.padding)
        self._input_shape = x.shape
        out = self._cols @ self.weight.data.T  # (..., N, out_h, out_w, out_channels)
        if self.bias is not None:
            out += self.bias.data
        return np.moveaxis(out, -1, -3)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cols is None or self._input_shape is None:
            raise RuntimeError("backward called before forward")
        grad = np.moveaxis(grad_output, -3, -1)  # (..., N, out_h, out_w, C)
        workers = self._input_shape[:-4]
        grad_2d = grad.reshape(*workers, -1, self.out_channels)
        cols_2d = self._cols.reshape(*workers, -1, self._cols.shape[-1])
        self.weight.accumulate(grad_2d.swapaxes(-1, -2) @ cols_2d)
        if self.bias is not None:
            self.bias.accumulate(grad_2d.sum(axis=-2))
        grad_cols = (grad_2d @ self.weight.data).reshape(*grad.shape[:-1], -1)
        return _col2im(grad_cols, self._input_shape, self.kernel_size, self.stride, self.padding)


class MaxPool2d(Module):
    """Non-overlapping max pooling with square windows."""

    def __init__(self, kernel_size: int = 2) -> None:
        super().__init__()
        if kernel_size < 1:
            raise ValueError(f"kernel_size must be >= 1, got {kernel_size}")
        self.kernel_size = kernel_size
        self._argmax: np.ndarray | None = None
        self._input_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim < 3:
            raise ValueError(f"MaxPool2d needs a (..., C, H, W) input, got shape {x.shape}")
        *lead, c, h, w = x.shape
        k = self.kernel_size
        if h % k or w % k:
            raise ValueError(f"input spatial dims ({h}x{w}) must be divisible by kernel_size {k}")
        self._input_shape = x.shape
        # (..., out_h, out_w, k * k, C): the window axis outside the channel axis.
        windows = np.moveaxis(x, -3, -1).reshape(*lead, h // k, k, w // k, k, c).swapaxes(-4, -3)
        windows = windows.reshape(*lead, h // k, w // k, k * k, c)
        self._argmax = windows.argmax(axis=-2)[..., None, :]
        return np.moveaxis(np.take_along_axis(windows, self._argmax, axis=-2)[..., 0, :], -1, -3)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._argmax is None or self._input_shape is None:
            raise RuntimeError("backward called before forward")
        *lead, c, h, w = self._input_shape
        k = self.kernel_size
        windows = np.zeros((*lead, h // k, w // k, k * k, c), dtype=np.float64)
        np.put_along_axis(windows, self._argmax, np.moveaxis(grad_output, -3, -1)[..., None, :], axis=-2)
        windows = windows.reshape(*lead, h // k, w // k, k, k, c).swapaxes(-4, -3)
        return np.moveaxis(windows.reshape(*lead, h, w, c), -1, -3)


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
