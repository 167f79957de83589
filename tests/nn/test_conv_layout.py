"""The channels-last conv layers equal the channels-first oracle, bit for bit.

:mod:`repro.nn.conv` builds im2col and col2im over channels-last buffers and
pools with one reduction; :mod:`.conv_reference` keeps the channels-first
bodies they replaced.  Conv outputs, input gradients and weight/bias gradients
must match the oracle bit for bit.  The pool's argmax and its input gradient
must too; its values equal the oracle's under ``==`` (NaN windows included),
since ``ndarray.max`` may pick either sign of a zero maximum held with both
signs, where the pool reads the window's first maximum.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.configs import get_benchmark
from repro.nn import Conv2d, MaxPool2d, ReLU

from .conv_reference import ReferenceConv2d, ReferenceMaxPool2d, to_reference


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _array(rng: np.random.Generator, shape: tuple[int, ...], channels_last: bool) -> np.ndarray:
    """A normal ``(..., C, H, W)`` array, contiguous or a view of ``(..., H, W, C)`` memory."""
    if not channels_last:
        return rng.normal(size=shape)
    *lead, c, h, w = shape
    return np.moveaxis(rng.normal(size=(*lead, h, w, c)), -1, -3)


#: Unstacked ``(N, ...)`` or a stack of W workers' batches ``(W, N, ...)``.
batch_axes = st.one_of(
    st.tuples(st.integers(1, 3)),
    st.tuples(st.integers(1, 3), st.integers(1, 2)),
)


@settings(max_examples=80, deadline=None)
@given(
    kernel=st.integers(1, 5),
    stride=st.integers(1, 3),
    padding=st.integers(0, 2),
    in_channels=st.integers(1, 16),
    out_channels=st.integers(1, 16),
    extra=st.tuples(st.integers(0, 4), st.integers(0, 4)),
    batch=batch_axes,
    bias=st.booleans(),
    channels_last=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_conv2d_equals_reference(
    kernel, stride, padding, in_channels, out_channels, extra, batch, bias, channels_last, seed
):
    rng = np.random.default_rng(seed)
    h, w = (max(1, kernel - 2 * padding) + e for e in extra)
    args = (in_channels, out_channels, kernel, stride, padding)
    layer = Conv2d(*args, bias=bias, rng=np.random.default_rng(seed))
    reference = ReferenceConv2d(*args, bias=bias, rng=np.random.default_rng(seed))
    workers = batch[0] if len(batch) == 2 else None
    if bias:
        layer.bias.data[...] = reference.bias.data[...] = rng.normal(size=out_channels)
    layer.zero_grad(workers=workers)
    reference.zero_grad(workers=workers)
    x = _array(rng, (*batch, in_channels, h, w), channels_last)

    out = layer(x)
    assert _same_bits(out, reference(x))
    grad_out = _array(rng, out.shape, channels_last)
    assert _same_bits(layer.backward(grad_out), reference.backward(grad_out))
    for name, param in layer.named_parameters().items():
        assert _same_bits(param.grad, reference.named_parameters()[name].grad), name


def _pool_input(rng, shape, channels_last, nan_share):
    """Few distinct values (ties in most windows), signed zeros and some NaN."""
    x = _array(rng, shape, channels_last)
    x[...] = rng.choice(np.array([-1.0, -0.0, 0.0, 0.5, 2.0]), size=shape)
    x[rng.random(shape) < nan_share] = np.nan
    return x


@settings(max_examples=80, deadline=None)
@given(
    kernel=st.integers(1, 5),
    channels=st.integers(1, 16),
    out_hw=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    batch=batch_axes,
    channels_last=st.booleans(),
    nan_share=st.sampled_from([0.0, 0.05, 0.5]),
    seed=st.integers(0, 2**16),
)
def test_maxpool2d_equals_reference(kernel, channels, out_hw, batch, channels_last, nan_share, seed):
    rng = np.random.default_rng(seed)
    shape = (*batch, channels, out_hw[0] * kernel, out_hw[1] * kernel)
    x = _pool_input(rng, shape, channels_last, nan_share)
    layer, reference = MaxPool2d(kernel), ReferenceMaxPool2d(kernel)

    out = layer(x)
    assert np.array_equal(out, reference(x), equal_nan=True)
    assert np.array_equal(np.moveaxis(layer._argmax[..., 0, :], -1, -3), reference._argmax)
    grad_out = _array(rng, out.shape, channels_last)
    assert _same_bits(layer.backward(grad_out), reference.backward(grad_out))


def test_maxpool2d_ties_route_to_the_first_maximum():
    x = np.array([[3.0, 3.0], [1.0, 3.0]]).reshape(1, 1, 2, 2)
    layer = MaxPool2d(2)
    assert layer(x)[0, 0, 0, 0] == 3.0
    grad = layer.backward(np.ones((1, 1, 1, 1)))
    assert np.array_equal(grad[0, 0], [[1.0, 0.0], [0.0, 0.0]])


def test_maxpool2d_nan_window_pools_nan_at_the_first_nan():
    x = np.array([[1.0, np.nan], [np.nan, 5.0]]).reshape(1, 1, 2, 2)
    layer = MaxPool2d(2)
    assert np.isnan(layer(x)[0, 0, 0, 0])
    grad = layer.backward(np.full((1, 1, 1, 1), 2.0))
    assert np.array_equal(grad[0, 0], [[0.0, 2.0], [0.0, 0.0]])


def test_layers_hand_off_channels_last_views():
    """Conv output, pool output and both input gradients keep channels innermost in memory."""
    rng = np.random.default_rng(0)
    conv, relu, pool = Conv2d(3, 4, rng=rng), ReLU(), MaxPool2d(2)
    out = pool(relu(conv(rng.normal(size=(2, 3, 8, 8)))))
    grad = relu.backward(pool.backward(rng.normal(size=out.shape)))
    for array in (conv(rng.normal(size=(2, 3, 8, 8))), out, grad, conv.backward(grad)):
        assert array.strides[-3] == array.itemsize


@pytest.mark.parametrize("proxy", ["vgg16-cifar10", "vgg19-imagenet", "resnet20-cifar10"])
@pytest.mark.parametrize("workers", [None, 1, 2, 3, 4])
def test_proxy_models_equal_reference(proxy, workers):
    """Logits, input gradients and every parameter gradient of the trainer's conv proxies."""
    config = get_benchmark(proxy)
    model = config.build_proxy_model(seed=3)
    reference = to_reference(config.build_proxy_model(seed=3))
    rng = np.random.default_rng(5)
    stack = () if workers is None else (workers,)
    x = rng.normal(size=(*stack, 4, 3, 16, 16))
    results = []
    for m in (model, reference):
        m.zero_grad(workers=workers)
        logits = m(x)
        grad_in = m.backward(np.random.default_rng(6).normal(size=logits.shape))
        results.append((logits, grad_in, {n: p.grad for n, p in m.named_parameters().items()}))
    (logits, grad_in, grads), (ref_logits, ref_grad_in, ref_grads) = results
    assert _same_bits(logits, ref_logits)
    assert _same_bits(grad_in, ref_grad_in)
    assert grads.keys() == ref_grads.keys()
    for name in grads:
        assert _same_bits(grads[name], ref_grads[name]), name
