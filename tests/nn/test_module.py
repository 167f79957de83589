"""Tests for the Module/Parameter base classes."""

import numpy as np
import pytest

from repro.nn import Linear, ReLU, Sequential
from repro.nn.module import Module, Parameter


class TestParameter:
    def test_grad_initialised_to_zero(self):
        p = Parameter(np.ones((2, 3)))
        assert p.shape == (2, 3)
        assert p.size == 6
        assert np.all(p.grad == 0.0)

    def test_zero_grad(self):
        p = Parameter(np.ones(4))
        p.grad += 2.0
        p.zero_grad()
        assert np.all(p.grad == 0.0)


class TestModuleTraversal:
    def test_named_parameters_nested(self):
        model = Sequential(Linear(4, 3), ReLU(), Linear(3, 2))
        names = set(model.named_parameters())
        assert names == {"0.weight", "0.bias", "2.weight", "2.bias"}

    def test_num_parameters(self):
        model = Sequential(Linear(4, 3), Linear(3, 2))
        assert model.num_parameters() == 4 * 3 + 3 + 3 * 2 + 2

    def test_zero_grad_recursive(self):
        model = Sequential(Linear(4, 3))
        model.parameters()[0].grad += 1.0
        model.zero_grad()
        assert np.all(model.parameters()[0].grad == 0.0)

    def test_train_eval_propagates(self):
        relu = ReLU()
        model = Sequential(Linear(2, 2), relu)
        model.eval()
        assert not model.training and not relu.training
        model.train()
        assert model.training and relu.training


class TestStateDict:
    def test_roundtrip(self):
        model = Sequential(Linear(4, 3, rng=np.random.default_rng(0)))
        state = model.state_dict()
        model.parameters()[0].data += 5.0
        model.load_state_dict(state)
        assert np.allclose(model.parameters()[0].data, state["0.weight"])

    def test_missing_key_rejected(self):
        model = Sequential(Linear(4, 3))
        with pytest.raises(KeyError):
            model.load_state_dict({})

    def test_shape_mismatch_rejected(self):
        model = Sequential(Linear(4, 3))
        state = model.state_dict()
        state["0.weight"] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_gradient_dict_matches_parameters(self):
        model = Sequential(Linear(4, 3))
        grads = model.gradient_dict()
        assert set(grads) == set(model.named_parameters())
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_abstract_forward_backward(self):
        with pytest.raises(NotImplementedError):
            Module().forward(np.zeros(1))
        with pytest.raises(NotImplementedError):
            Module().backward(np.zeros(1))
