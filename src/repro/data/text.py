"""Synthetic language-modelling data standing in for the Penn Treebank.

A first-order Markov chain over a synthetic vocabulary generates token
streams with realistic statistical structure: a Zipfian unigram distribution
and sparse, peaked transition rows.  A language model can genuinely reduce
perplexity on this data (the transitions are learnable), which is what the
PTB proxy benchmark needs.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LanguageModelingDataset:
    """Token stream split into fixed-length (input, next-token target) windows."""

    inputs: np.ndarray   # (num_sequences, seq_len) int64
    targets: np.ndarray  # (num_sequences, seq_len) int64
    vocab_size: int

    def __post_init__(self) -> None:
        if self.inputs.shape != self.targets.shape:
            raise ValueError("inputs and targets must have the same shape")
        if len(self.inputs) == 0:
            raise ValueError("dataset cannot be empty")

    def __len__(self) -> int:
        return len(self.inputs)

    def subset(self, indices: np.ndarray) -> "LanguageModelingDataset":
        return LanguageModelingDataset(
            inputs=self.inputs[indices], targets=self.targets[indices], vocab_size=self.vocab_size
        )


def _markov_transition_matrix(vocab_size: int, branching: int, rng: np.random.Generator) -> np.ndarray:
    """Sparse, peaked transition matrix with a Zipfian stationary tendency."""
    zipf = 1.0 / np.arange(1, vocab_size + 1, dtype=np.float64)
    zipf /= zipf.sum()
    matrix = np.zeros((vocab_size, vocab_size))
    for token in range(vocab_size):
        successors = rng.choice(vocab_size, size=min(branching, vocab_size), replace=False, p=zipf)
        weights = rng.dirichlet(np.ones(len(successors)) * 0.5)
        matrix[token, successors] = weights
    # Mix with the unigram distribution so every row has full support.
    matrix = 0.9 * matrix + 0.1 * zipf[None, :]
    matrix /= matrix.sum(axis=1, keepdims=True)
    return matrix


def make_language_modeling(
    num_sequences: int = 128,
    seq_len: int = 20,
    vocab_size: int = 64,
    *,
    branching: int = 4,
    seed: int = 0,
) -> LanguageModelingDataset:
    """Generate a Markov-chain token corpus windowed for next-token prediction."""
    if vocab_size < 2:
        raise ValueError("vocab_size must be at least 2")
    if seq_len < 2:
        raise ValueError("seq_len must be at least 2")
    rng = np.random.default_rng(seed)
    transitions = _markov_transition_matrix(vocab_size, branching, rng)
    total_tokens = num_sequences * (seq_len + 1)
    tokens = [int(rng.integers(0, vocab_size))]
    # ``rng.choice(vocab_size, p=row)`` per token, with its draws taken at
    # once: one uniform each, looked up in the row's CDF normalised by its
    # last entry with a right-side search.
    cdf = transitions.cumsum(axis=1)
    cdf_rows = (cdf / cdf[:, -1:]).tolist()
    for u in rng.random(total_tokens - 1).tolist():
        tokens.append(bisect.bisect_right(cdf_rows[tokens[-1]], u))
    windows = np.array(tokens, dtype=np.int64).reshape(num_sequences, seq_len + 1)
    return LanguageModelingDataset(inputs=windows[:, :-1], targets=windows[:, 1:], vocab_size=vocab_size)
