"""Tests for the SGD optimiser."""

import numpy as np
import pytest

from repro.nn import Linear, Sequential
from repro.optim import SGD


def _model(seed=0):
    return Sequential(Linear(3, 2, rng=np.random.default_rng(seed)))


def _weights(model):
    return {name: p.data.copy() for name, p in model.named_parameters().items()}


class TestVanillaSGD:
    def test_step_with_explicit_gradients(self):
        model = _model()
        before = _weights(model)
        grads = {name: np.ones_like(p.data) for name, p in model.named_parameters().items()}
        SGD(model, lr=0.1).step(grads)
        after = _weights(model)
        for name in before:
            assert np.allclose(after[name], before[name] - 0.1)

    def test_step_uses_accumulated_grads_by_default(self):
        model = _model()
        for p in model.parameters():
            p.grad += 2.0
        before = _weights(model)
        SGD(model, lr=0.5).step()
        for name, p in model.named_parameters().items():
            assert np.allclose(p.data, before[name] - 1.0)

    def test_weight_decay_shrinks_parameters(self):
        model = _model()
        for p in model.parameters():
            p.data[...] = 1.0
        grads = {name: np.zeros_like(p.data) for name, p in model.named_parameters().items()}
        SGD(model, lr=0.1, weight_decay=0.5).step(grads)
        assert np.allclose(model.parameters()[0].data, 1.0 - 0.1 * 0.5)

    def test_missing_gradient_rejected(self):
        model = _model()
        with pytest.raises(KeyError):
            SGD(model, lr=0.1).step({})

    def test_shape_mismatch_rejected(self):
        model = _model()
        grads = {name: np.zeros((1,)) for name in model.named_parameters()}
        with pytest.raises(ValueError):
            SGD(model, lr=0.1).step(grads)

    @pytest.mark.parametrize(
        "kwargs",
        [{"lr": 0.0}, {"lr": -1.0}, {"momentum": 1.0}, {"momentum": 0.5, "nesterov": True, "lr": 0.1, "momentum": -0.1}, {"weight_decay": -1.0}],
    )
    def test_invalid_hyperparameters_rejected(self, kwargs):
        kwargs.setdefault("lr", 0.1)
        with pytest.raises(ValueError):
            SGD(_model(), **kwargs)

    def test_nesterov_requires_momentum(self):
        with pytest.raises(ValueError):
            SGD(_model(), lr=0.1, momentum=0.0, nesterov=True)


class TestMomentum:
    def test_momentum_accumulates_velocity(self):
        model = _model()
        opt = SGD(model, lr=1.0, momentum=0.9)
        grads = {name: np.ones_like(p.data) for name, p in model.named_parameters().items()}
        before = _weights(model)
        opt.step(grads)  # velocity = 1, update = 1
        opt.step(grads)  # velocity = 1.9, update = 1.9
        after = _weights(model)
        for name in before:
            assert np.allclose(after[name], before[name] - 1.0 - 1.9)

    def test_nesterov_applies_lookahead(self):
        plain = _model()
        nesterov = _model()
        grads = {name: np.ones_like(p.data) for name, p in plain.named_parameters().items()}
        SGD(plain, lr=1.0, momentum=0.9).step(grads)
        SGD(nesterov, lr=1.0, momentum=0.9, nesterov=True).step(grads)
        # Nesterov's first step is larger: grad + momentum * velocity = 1.9 vs 1.0.
        assert nesterov.parameters()[0].data.mean() < plain.parameters()[0].data.mean()
