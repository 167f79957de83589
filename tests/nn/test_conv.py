"""Tests for convolutional layers and the residual block."""

import numpy as np
import pytest

from repro.nn import Conv2d, GlobalAvgPool2d, MaxPool2d, ResidualBlock

from .helpers import layer_input_gradient_check


class TestConv2d:
    def test_output_shape_same_padding(self, rng):
        layer = Conv2d(3, 5, kernel_size=3, stride=1, padding=1, rng=rng)
        out = layer(rng.normal(size=(2, 3, 8, 8)))
        assert out.shape == (2, 5, 8, 8)

    def test_output_shape_stride_two(self, rng):
        layer = Conv2d(3, 4, kernel_size=3, stride=2, padding=1, rng=rng)
        out = layer(rng.normal(size=(2, 3, 8, 8)))
        assert out.shape == (2, 4, 4, 4)

    def test_matches_manual_convolution_1x1(self, rng):
        # A 1x1 convolution is a per-pixel linear map; verify against einsum.
        layer = Conv2d(3, 2, kernel_size=1, stride=1, padding=0, rng=rng)
        x = rng.normal(size=(2, 3, 4, 4))
        out = layer(x)
        weights = layer.weight.data.reshape(2, 3)
        expected = np.einsum("oc,nchw->nohw", weights, x) + layer.bias.data[None, :, None, None]
        assert np.allclose(out, expected)

    def test_input_gradient(self, rng):
        layer = Conv2d(2, 3, kernel_size=3, stride=1, padding=1, rng=rng)
        err = layer_input_gradient_check(layer, rng.normal(size=(2, 2, 5, 5)))
        assert err < 1e-5

    def test_input_gradient_with_stride(self, rng):
        layer = Conv2d(2, 2, kernel_size=3, stride=2, padding=1, rng=rng)
        err = layer_input_gradient_check(layer, rng.normal(size=(1, 2, 6, 6)))
        assert err < 1e-5

    def test_backward_before_forward_rejected(self):
        with pytest.raises(RuntimeError):
            Conv2d(1, 1).backward(np.zeros((1, 1, 2, 2)))


class TestMaxPool2d:
    def test_forward_picks_maximum(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = MaxPool2d(2)(x)
        assert np.allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_backward_routes_to_argmax(self):
        layer = MaxPool2d(2)
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        layer(x)
        grad = layer.backward(np.ones((1, 1, 2, 2)))
        assert grad.sum() == 4.0
        assert grad[0, 0, 1, 1] == 1.0  # position of "5"

    def test_input_gradient(self, rng):
        # Use distinct values so the argmax is stable under the FD perturbation.
        x = rng.permutation(64).astype(np.float64).reshape(1, 1, 8, 8) * 0.1
        err = layer_input_gradient_check(MaxPool2d(2), x)
        assert err < 1e-5

    def test_indivisible_size_rejected(self, rng):
        with pytest.raises(ValueError):
            MaxPool2d(2)(rng.normal(size=(1, 1, 5, 5)))


class TestBadGeometry:
    """Bad conv and pool geometry raises ``ValueError``, at construction or in ``forward``."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"stride": 0},
            {"kernel_size": 0},
            {"padding": -1},
            {"in_channels": 0},
            {"out_channels": 0},
        ],
        ids=lambda kwargs: next(iter(kwargs)),
    )
    def test_conv2d_constructor_rejects(self, kwargs):
        args = {"in_channels": 2, "out_channels": 3, **kwargs}
        with pytest.raises(ValueError):
            Conv2d(**args)

    @pytest.mark.parametrize("kernel_size", [0, -2])
    def test_maxpool2d_constructor_rejects(self, kernel_size):
        with pytest.raises(ValueError):
            MaxPool2d(kernel_size)

    def test_conv2d_channel_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="input channels"):
            Conv2d(3, 4, rng=rng)(rng.normal(size=(2, 2, 5, 5)))

    def test_conv2d_input_smaller_than_kernel_rejected(self, rng):
        layer = Conv2d(1, 1, kernel_size=5, padding=1, rng=rng)
        with pytest.raises(ValueError, match="smaller than kernel_size"):
            layer(rng.normal(size=(1, 1, 2, 6)))
        assert layer(rng.normal(size=(1, 1, 3, 3))).shape == (1, 1, 1, 1)

    def test_maxpool2d_rank_below_three_rejected(self, rng):
        with pytest.raises(ValueError, match=r"\(\.\.\., C, H, W\)"):
            MaxPool2d(2)(rng.normal(size=(4, 4)))


class TestGlobalAvgPool2d:
    def test_forward_is_spatial_mean(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        out = GlobalAvgPool2d()(x)
        assert np.allclose(out, x.mean(axis=(2, 3)))

    def test_input_gradient(self, rng):
        err = layer_input_gradient_check(GlobalAvgPool2d(), rng.normal(size=(2, 3, 4, 4)))
        assert err < 1e-6


class TestResidualBlock:
    def test_preserves_shape(self, rng):
        block = ResidualBlock(4, rng=rng)
        out = block(rng.normal(size=(2, 4, 6, 6)))
        assert out.shape == (2, 4, 6, 6)

    def test_input_gradient(self, rng):
        block = ResidualBlock(2, rng=rng)
        err = layer_input_gradient_check(block, rng.normal(size=(1, 2, 4, 4)))
        assert err < 1e-4

    def test_skip_connection_contributes(self, rng):
        # Zeroing the convolution weights leaves ReLU(x) thanks to the skip.
        block = ResidualBlock(2, rng=rng)
        for param in block.parameters():
            param.data[...] = 0.0
        x = rng.normal(size=(1, 2, 4, 4))
        assert np.allclose(block(x), np.maximum(x, 0.0))
