"""The channels-first conv and max-pool bodies: a test oracle.

:mod:`repro.nn.conv` moves data through channels-last buffers: im2col fills
its columns with k² slice copies of a padded ``(..., H, W, C)`` buffer,
col2im accumulates into the same layout, and the max pool reduces once and
reads its values back with ``take_along_axis``.  The functions and classes
below are the channels-first implementation that replaced, kept statement
for statement, so the layers can be held bit-for-bit equal to it:

* :func:`_im2col` (a copy of a 6-D ``as_strided`` view of the ``np.pad``-ed
  input) and :func:`_col2im` (accumulation into a channels-first buffer);
* :class:`ReferenceConv2d` and :class:`ReferenceMaxPool2d`, the layers with
  their old ``forward``/``backward`` and the library's constructors;
* :func:`to_reference`, which turns every conv and pool in a model tree into
  its reference class in place, so two identically seeded models can be run
  side by side.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import numpy as np

from repro.nn.conv import Conv2d, MaxPool2d
from repro.nn.module import Module


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


class ReferenceConv2d(Conv2d):
    """:class:`~repro.nn.Conv2d` with its channels-first ``forward`` and ``backward``."""

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


class ReferenceMaxPool2d(MaxPool2d):
    """:class:`~repro.nn.MaxPool2d` with its two-reduction ``forward`` and scatter ``backward``."""

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


def to_reference(model: Module) -> Module:
    """Swap every :class:`Conv2d` and :class:`MaxPool2d` in ``model``'s tree for its reference class."""
    swaps = {Conv2d: ReferenceConv2d, MaxPool2d: ReferenceMaxPool2d}
    stack = [model]
    while stack:
        module = stack.pop()
        module.__class__ = swaps.get(type(module), type(module))
        stack.extend(module._modules.values())
    return model
