"""A stacked pass over W workers equals W unstacked passes, bit for bit.

Every module and model takes an optional leading worker axis: after
``zero_grad(workers=W)`` it runs ``(W, batch, ...)`` inputs and leaves
``(W, *shape)`` parameter gradients.  Each worker's output, input gradient
and parameter-gradient slice must be exactly what its own unstacked pass
gives, since the trainer's records are pinned bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    LSTM,
    CNNClassifier,
    Conv2d,
    Embedding,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    LSTMLanguageModel,
    LSTMSequenceClassifier,
    MaxPool2d,
    MLPClassifier,
    ReLU,
    ResidualBlock,
    ResNetProxy,
    Sequential,
    cross_entropy,
)
from repro.nn.module import Parameter

from .helpers import layer_input_gradient_check, numeric_gradient_check


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


#: name -> (factory(seed), per-worker input(rng, batch)).  The factory is
#: called once per path, so both paths start from identical parameters.
CASES = {
    "linear": (lambda s: Linear(5, 3, rng=_rng(s)), lambda r, b: r.normal(size=(b, 5))),
    "relu": (lambda s: ReLU(), lambda r, b: r.normal(size=(b, 3, 4))),
    "flatten": (lambda s: Flatten(), lambda r, b: r.normal(size=(b, 2, 3, 2))),
    "sequential": (
        lambda s: Sequential(Linear(4, 6, rng=_rng(s)), ReLU(), Linear(6, 2, rng=_rng(s + 1))),
        lambda r, b: r.normal(size=(b, 4)),
    ),
    "embedding": (lambda s: Embedding(9, 4, rng=_rng(s)), lambda r, b: r.integers(0, 9, size=(b, 5))),
    "lstm": (lambda s: LSTM(3, 4, num_layers=2, rng=_rng(s)), lambda r, b: r.normal(size=(b, 5, 3))),
    "conv2d": (
        lambda s: Conv2d(2, 3, kernel_size=3, stride=1, padding=1, rng=_rng(s)),
        lambda r, b: r.normal(size=(b, 2, 5, 5)),
    ),
    "conv2d-strided": (
        lambda s: Conv2d(2, 3, kernel_size=3, stride=2, padding=0, bias=False, rng=_rng(s)),
        lambda r, b: r.normal(size=(b, 2, 7, 7)),
    ),
    "maxpool2d": (lambda s: MaxPool2d(2), lambda r, b: r.normal(size=(b, 2, 4, 6))),
    "globalavgpool2d": (lambda s: GlobalAvgPool2d(), lambda r, b: r.normal(size=(b, 3, 4, 5))),
    "residualblock": (lambda s: ResidualBlock(2, rng=_rng(s)), lambda r, b: r.normal(size=(b, 2, 4, 4))),
    "mlp": (
        lambda s: MLPClassifier(12, hidden_dims=(8, 6), num_classes=4, seed=s),
        lambda r, b: r.normal(size=(b, 3, 2, 2)),
    ),
    "cnn": (
        lambda s: CNNClassifier(2, image_size=8, channels=(3, 4), num_classes=5, seed=s),
        lambda r, b: r.normal(size=(b, 2, 8, 8)),
    ),
    "resnet": (
        lambda s: ResNetProxy(2, num_blocks=1, width=3, num_classes=4, seed=s),
        lambda r, b: r.normal(size=(b, 2, 4, 4)),
    ),
    "lstm_lm": (
        lambda s: LSTMLanguageModel(11, embedding_dim=4, hidden_size=5, num_layers=2, seed=s),
        lambda r, b: r.integers(0, 11, size=(b, 6)),
    ),
    "lstm_seq": (
        lambda s: LSTMSequenceClassifier(3, hidden_size=5, num_layers=2, num_classes=4, seed=s),
        lambda r, b: r.normal(size=(b, 6, 3)),
    ),
}

#: Models whose per-worker loss the trainer takes from the stacked logits.
MODELS = ("mlp", "cnn", "resnet", "lstm_lm", "lstm_seq")


def _run_both(name: str, workers: int, batch: int, seed: int):
    """Per-worker passes and one stacked pass; returns both sides' results."""
    factory, make_input = CASES[name]
    rng = _rng(seed)
    inputs = [make_input(rng, batch) for _ in range(workers)]

    module = factory(seed)
    singles = []
    for x in inputs:
        module.zero_grad()
        out = module(x)
        grad_out = rng.normal(size=out.shape)
        grad_in = module.backward(grad_out)
        grads = {n: p.grad.copy() for n, p in module.named_parameters().items()}
        singles.append((out, grad_out, grad_in, grads))

    stacked = factory(seed)
    stacked.zero_grad(workers=workers)
    out = stacked(np.stack(inputs))
    grad_in = stacked.backward(np.stack([s[1] for s in singles]))
    return module, stacked, singles, (out, grad_in, stacked.named_parameters())


def _assert_bit_equal(name: str, workers: int, batch: int, seed: int) -> None:
    _, _, singles, (out, grad_in, params) = _run_both(name, workers, batch, seed)
    assert out.shape[0] == workers and grad_in.shape[0] == workers
    for w, (single_out, _, single_grad_in, single_grads) in enumerate(singles):
        assert np.array_equal(out[w], single_out)
        assert np.array_equal(grad_in[w], single_grad_in)
        for pname, param in params.items():
            assert param.grad.shape == (workers, *param.shape)
            assert np.array_equal(param.grad[w], single_grads[pname]), pname


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(CASES)),
    workers=st.integers(min_value=1, max_value=5),
    batch=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_stacked_pass_equals_per_worker_passes(name, workers, batch, seed):
    _assert_bit_equal(name, workers, batch, seed)


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("workers", [1, 3, 5])
def test_every_case_is_bit_equal(name, workers):
    """Each module and model, deterministically (the hypothesis suite samples)."""
    _assert_bit_equal(name, workers, batch=2, seed=7)


@pytest.mark.parametrize("name", MODELS)
def test_per_worker_losses_from_stacked_logits(name):
    factory, make_input = CASES[name]
    rng = _rng(3)
    inputs = [make_input(rng, 3) for _ in range(4)]
    logits = factory(1)(inputs[0])
    targets = [rng.integers(0, logits.shape[-1], size=logits.shape[:-1]) for _ in inputs]
    model = factory(1)
    singles = [cross_entropy(model(x), t) for x, t in zip(inputs, targets)]
    model = factory(1)
    model.zero_grad(workers=4)
    stacked = model(np.stack(inputs))
    for w, (loss, grad) in enumerate(singles):
        stacked_loss, stacked_grad = cross_entropy(stacked[w], targets[w])
        assert stacked_loss == loss
        assert np.array_equal(stacked_grad, grad)


class TestWorkerAxisChecks:
    def test_zero_grad_shapes_gradients(self):
        p = Parameter(np.ones((2, 3)))
        p.zero_grad(workers=4)
        assert p.grad.shape == (4, 2, 3)
        p.zero_grad()
        assert p.grad.shape == (2, 3)

    def test_unstacked_contribution_into_stacked_gradient_raises(self):
        p = Parameter(np.ones((2, 3)))
        p.zero_grad(workers=2)
        with pytest.raises(ValueError):
            p.accumulate(np.ones((2, 3)))

    def test_stacked_contribution_into_unstacked_gradient_raises(self):
        p = Parameter(np.ones((2, 3)))
        with pytest.raises(ValueError):
            p.accumulate(np.ones((4, 2, 3)))
        # (1, 2, 3) would broadcast under ``+=``; it must not.
        with pytest.raises(ValueError):
            p.accumulate(np.ones((1, 2, 3)))

    @pytest.mark.parametrize(
        "name", [n for n in sorted(CASES) if CASES[n][0](0).parameters()]
    )
    def test_module_gradient_stack_mismatch_raises(self, name):
        factory, make_input = CASES[name]
        rng = _rng(0)
        # An unstacked pass into (3, *shape) gradients.
        module = factory(0)
        for p in module.parameters():
            p.zero_grad(workers=3)
        out = module(make_input(rng, 3))
        with pytest.raises(ValueError):
            module.backward(np.ones_like(out))
        # A stacked pass into unstacked gradients.
        module = factory(0)
        module.zero_grad(workers=3)
        for p in module.parameters():
            p.zero_grad()
        out = module(np.stack([make_input(rng, 2) for _ in range(3)]))
        with pytest.raises(ValueError):
            module.backward(np.ones_like(out))

    @pytest.mark.parametrize("name", ["flatten", "embedding", "lstm", "mlp"])
    def test_wrong_worker_axis_rejected(self, name):
        factory, make_input = CASES[name]
        module = factory(0)
        module.zero_grad(workers=3)
        with pytest.raises(ValueError):
            module(np.stack([make_input(_rng(0), 2) for _ in range(2)]))

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            Linear(2, 2).zero_grad(workers=0)


class TestGradientChecksOnAStack:
    """The model and layer gradient checks of this package, on a W=3 stack."""

    def test_mlp_gradients(self, rng):
        model = MLPClassifier(10, hidden_dims=(8,), num_classes=4, seed=0)
        err = numeric_gradient_check(
            model, rng.normal(size=(3, 5, 10)), rng.integers(0, 4, size=(3, 5)), workers=3
        )
        assert err < 1e-4

    def test_cnn_gradients(self, rng):
        model = CNNClassifier(2, image_size=8, channels=(3,), num_classes=4, seed=0)
        err = numeric_gradient_check(
            model, rng.normal(size=(3, 2, 2, 8, 8)), rng.integers(0, 4, size=(3, 2)), workers=3
        )
        assert err < 1e-4

    def test_resnet_gradients(self, rng):
        model = ResNetProxy(2, num_blocks=1, width=4, num_classes=3, seed=0)
        err = numeric_gradient_check(
            model, rng.normal(size=(3, 2, 2, 8, 8)), rng.integers(0, 3, size=(3, 2)), workers=3
        )
        assert err < 1e-4

    def test_lstm_lm_gradients(self, rng):
        model = LSTMLanguageModel(12, embedding_dim=5, hidden_size=6, num_layers=2, seed=0)
        tokens = rng.integers(0, 12, size=(3, 2, 5))
        targets = rng.integers(0, 12, size=(3, 2, 5))
        err = numeric_gradient_check(model, tokens, targets, workers=3)
        assert err < 5e-3  # tiny LSTM gradients make finite differences noisy

    def test_lstm_seq_gradients(self, rng):
        model = LSTMSequenceClassifier(4, hidden_size=6, num_layers=1, num_classes=3, seed=0)
        err = numeric_gradient_check(
            model, rng.normal(size=(3, 3, 6, 4)), rng.integers(0, 3, size=(3, 3)), workers=3
        )
        assert err < 1e-3

    @pytest.mark.parametrize(
        "layer, shape",
        [
            (Linear(6, 4, rng=_rng(1)), (3, 6)),
            (ReLU(), (4, 5)),
            (Conv2d(2, 3, 3, 1, 1, rng=_rng(1)), (2, 2, 5, 5)),
            (Conv2d(2, 2, 3, 2, 1, rng=_rng(1)), (1, 2, 6, 6)),
            (MaxPool2d(2), (2, 2, 4, 4)),
            (GlobalAvgPool2d(), (2, 3, 4, 4)),
            (ResidualBlock(2, rng=_rng(1)), (1, 2, 4, 4)),
            (LSTM(3, 4, rng=_rng(1)), (2, 4, 3)),
        ],
        ids=lambda v: type(v).__name__ if not isinstance(v, tuple) else "x".join(map(str, v)),
    )
    def test_layer_input_gradients(self, layer, shape, rng):
        x = rng.normal(size=(3, *shape))
        if isinstance(layer, MaxPool2d):
            # Distinct values keep the argmax away from finite-difference ties.
            x = rng.permutation(np.arange(x.size, dtype=float)).reshape(x.shape) / x.size
        assert layer_input_gradient_check(layer, x, workers=3) < 1e-5
