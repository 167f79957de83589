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


class TestAbstractModule:
    def test_abstract_forward_backward(self):
        with pytest.raises(NotImplementedError):
            Module().forward(np.zeros(1))
        with pytest.raises(NotImplementedError):
            Module().backward(np.zeros(1))
