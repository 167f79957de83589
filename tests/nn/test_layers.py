"""Tests for dense layers, ReLU and containers."""

import numpy as np
import pytest

from repro.nn import (
    Flatten,
    GlobalAvgPool2d,
    Linear,
    LSTMLanguageModel,
    LSTMSequenceClassifier,
    MaxPool2d,
    ReLU,
    ResidualBlock,
    Sequential,
)

from .helpers import layer_input_gradient_check


class TestLinear:
    def test_forward_shape_and_bias(self, rng):
        layer = Linear(5, 3, rng=rng)
        out = layer(rng.normal(size=(7, 5)))
        assert out.shape == (7, 3)

    def test_no_bias_option(self, rng):
        layer = Linear(5, 3, bias=False, rng=rng)
        assert layer.bias is None
        assert len([p for p in layer.parameters()]) == 1

    def test_input_gradient(self, rng):
        layer = Linear(6, 4, rng=rng)
        err = layer_input_gradient_check(layer, rng.normal(size=(3, 6)))
        assert err < 1e-5

    def test_parameter_gradients_accumulate(self, rng):
        layer = Linear(4, 2, rng=rng)
        x = rng.normal(size=(3, 4))
        layer(x)
        layer.backward(np.ones((3, 2)))
        first = layer.weight.grad.copy()
        layer(x)
        layer.backward(np.ones((3, 2)))
        assert np.allclose(layer.weight.grad, 2 * first)

    def test_backward_before_forward_rejected(self):
        with pytest.raises(RuntimeError):
            Linear(2, 2).backward(np.ones((1, 2)))


class TestReLU:
    def test_input_gradient(self, rng):
        err = layer_input_gradient_check(ReLU(), rng.normal(size=(4, 5)))
        assert err < 1e-5

    def test_backward_before_forward_rejected(self):
        with pytest.raises(RuntimeError):
            ReLU().backward(np.ones((1, 2)))

    def test_zeroes_negatives(self):
        out = ReLU()(np.array([[-1.0, 2.0, 0.0]]))
        assert np.allclose(out, [[0.0, 2.0, 0.0]])


class TestFlattenAndSequential:
    def test_flatten_roundtrip(self, rng):
        layer = Flatten()
        x = rng.normal(size=(3, 2, 4))
        out = layer(x)
        assert out.shape == (3, 8)
        back = layer.backward(out)
        assert back.shape == x.shape

    def test_sequential_forward_backward_chain(self, rng):
        model = Sequential(Linear(4, 8, rng=rng), ReLU(), Linear(8, 2, rng=rng))
        x = rng.normal(size=(5, 4))
        out = model(x)
        grad_in = model.backward(np.ones_like(out))
        assert grad_in.shape == x.shape


@pytest.mark.parametrize(
    "factory",
    [
        Flatten,
        lambda: MaxPool2d(2),
        GlobalAvgPool2d,
        lambda: ResidualBlock(2),
        lambda: LSTMLanguageModel(5, embedding_dim=3, hidden_size=4),
        lambda: LSTMSequenceClassifier(3, hidden_size=4, num_classes=2),
    ],
    ids=["Flatten", "MaxPool2d", "GlobalAvgPool2d", "ResidualBlock", "LSTMLanguageModel", "LSTMSequenceClassifier"],
)
def test_backward_before_forward_rejected(factory):
    with pytest.raises(RuntimeError, match="backward called before forward"):
        factory().backward(np.ones((1, 2)))
