"""Proxy models mirroring the architecture families of Table 1.

These are intentionally narrow versions of the paper's benchmark models (the
simulator trains them in seconds on CPU) but they keep the structural features
that shape gradient statistics: deep conv stacks with a classifier head
(VGG-style), residual blocks (ResNet-style), and embedding + stacked LSTM +
projection (PTB / AN4-style).  The full-size parameter counts from Table 1 are
used separately by the performance model when converting to wall-clock time.

Every model also runs a stacked pass over several workers' batches (see
:mod:`repro.nn.module`).  ``worker_group`` is how many workers the trainer
stacks at most: the recurrent proxies' cost is NumPy call overhead in their
per-timestep loop, so stacking 8 workers pays (groups of 8 measured fastest
on ``lstm-ptb``, and keep the pass's peak memory near 5 MiB); the
convolutional proxies stay at 1, since stacking them was measured not to pay.
Their cost is memory layout, not FLOPs (see :mod:`repro.nn.conv`).
"""

from __future__ import annotations

import numpy as np

from .conv import Conv2d, GlobalAvgPool2d, MaxPool2d, ResidualBlock
from .layers import Dropout, Flatten, Linear, ReLU, Sequential
from .module import Module
from .rnn import LSTM, Embedding


class MLPClassifier(Module):
    """Small fully connected classifier (used for quick tests and examples)."""

    def __init__(
        self,
        input_dim: int,
        hidden_dims: tuple[int, ...] = (64, 32),
        num_classes: int = 10,
        *,
        seed: int = 0,
    ) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        layers: list[Module] = []
        prev = input_dim
        for width in hidden_dims:
            layers.append(Linear(prev, width, rng=rng))
            layers.append(ReLU())
            prev = width
        layers.append(Linear(prev, num_classes, rng=rng))
        self.net = Sequential(*layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        keep = len(self.worker_axes(x)) + 1
        return self.net(x.reshape(*x.shape[:keep], -1))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return self.net.backward(grad_output)


class CNNClassifier(Module):
    """VGG-style stack: conv blocks with max pooling, then a dense head."""

    def __init__(
        self,
        in_channels: int = 3,
        image_size: int = 16,
        channels: tuple[int, ...] = (16, 32),
        num_classes: int = 10,
        *,
        dropout: float = 0.0,
        seed: int = 0,
    ) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        blocks: list[Module] = []
        prev = in_channels
        size = image_size
        for ch in channels:
            blocks.append(Conv2d(prev, ch, 3, 1, 1, rng=rng))
            blocks.append(ReLU())
            blocks.append(MaxPool2d(2))
            prev = ch
            size //= 2
        blocks.append(Flatten())
        if dropout > 0.0:
            blocks.append(Dropout(dropout, rng=rng))
        blocks.append(Linear(prev * size * size, num_classes, rng=rng))
        self.net = Sequential(*blocks)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.net(x)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return self.net.backward(grad_output)


class ResNetProxy(Module):
    """Residual CNN: stem conv, residual blocks, global average pooling, linear head."""

    def __init__(
        self,
        in_channels: int = 3,
        num_blocks: int = 2,
        width: int = 16,
        num_classes: int = 10,
        *,
        seed: int = 0,
    ) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.stem = Conv2d(in_channels, width, 3, 1, 1, rng=rng)
        self.stem_relu = ReLU()
        self.blocks = Sequential(*[ResidualBlock(width, rng=rng) for _ in range(num_blocks)])
        self.pool = GlobalAvgPool2d()
        self.head = Linear(width, num_classes, rng=rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        h = self.stem_relu(self.stem(x))
        h = self.blocks(h)
        h = self.pool(h)
        return self.head(h)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = self.head.backward(grad_output)
        grad = self.pool.backward(grad)
        grad = self.blocks.backward(grad)
        grad = self.stem_relu.backward(grad)
        return self.stem.backward(grad)


class LSTMLanguageModel(Module):
    """Embedding + stacked LSTM + tied-width projection to the vocabulary.

    The PTB proxy: predicts the next token at every position, evaluated with
    perplexity like the paper's 2x1500 LSTM.
    """

    worker_group = 8

    def __init__(
        self,
        vocab_size: int,
        embedding_dim: int = 32,
        hidden_size: int = 64,
        num_layers: int = 2,
        *,
        seed: int = 0,
    ) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.embedding = Embedding(vocab_size, embedding_dim, rng=rng)
        self.lstm = LSTM(embedding_dim, hidden_size, num_layers, rng=rng)
        self.projection = Linear(hidden_size, vocab_size, rng=rng)
        self._hidden_shape: tuple[int, ...] | None = None

    def forward(self, token_ids: np.ndarray) -> np.ndarray:
        embedded = self.embedding(token_ids)
        hidden = self.lstm(embedded)
        self._hidden_shape = hidden.shape
        # Project every (batch, time) position of each worker in one GEMM.
        *lead, time, width = hidden.shape
        logits = self.projection(hidden.reshape(*lead[:-1], -1, width))
        return logits.reshape(*lead, time, -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._hidden_shape is None:
            raise RuntimeError("backward called before forward")
        workers = self._hidden_shape[:-3]
        grad = self.projection.backward(grad_output.reshape(*workers, -1, grad_output.shape[-1]))
        grad = self.lstm.backward(grad.reshape(self._hidden_shape))
        return self.embedding.backward(grad)


class LSTMSequenceClassifier(Module):
    """Stacked LSTM over feature frames with mean pooling and a classifier head.

    The AN4 proxy: consumes "acoustic" feature sequences and predicts an
    utterance label, standing in for the DeepSpeech-style model (the
    compressors only ever see its gradients).
    """

    worker_group = 8

    def __init__(
        self,
        input_dim: int,
        hidden_size: int = 48,
        num_layers: int = 2,
        num_classes: int = 10,
        *,
        seed: int = 0,
    ) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.lstm = LSTM(input_dim, hidden_size, num_layers, rng=rng)
        self.head = Linear(hidden_size, num_classes, rng=rng)
        self._time: int | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        hidden = self.lstm(x)
        self._time = hidden.shape[-2]
        pooled = hidden.mean(axis=-2)
        return self.head(pooled)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._time is None:
            raise RuntimeError("backward called before forward")
        grad_pooled = self.head.backward(grad_output)
        grad_hidden = np.repeat(grad_pooled[..., None, :], self._time, axis=-2) / self._time
        return self.lstm.backward(grad_hidden)


def build_model(name: str, **kwargs) -> Module:
    """Construct a proxy model by short name.

    Known names: ``mlp``, ``cnn`` (VGG-style), ``resnet`` (residual proxy),
    ``lstm_lm`` (PTB proxy), ``lstm_seq`` (AN4 proxy).
    """
    registry = {
        "mlp": MLPClassifier,
        "cnn": CNNClassifier,
        "resnet": ResNetProxy,
        "lstm_lm": LSTMLanguageModel,
        "lstm_seq": LSTMSequenceClassifier,
    }
    key = name.lower()
    if key not in registry:
        raise ValueError(f"unknown model {name!r}; known: {sorted(registry)}")
    return registry[key](**kwargs)
