"""Tests for the synthetic dataset generators."""

import numpy as np
import pytest

from repro.data import (
    ArrayDataset,
    make_image_classification,
    make_language_modeling,
    make_sequence_classification,
)
from repro.data import text
from tests.synthetic import make_blobs_classification, make_regression


def reference_language_modeling(num_sequences, seq_len, vocab_size, *, branching=4, seed=0):
    """``make_language_modeling``'s tokens drawn with ``rng.choice(p=row)`` one token at a time."""
    rng = np.random.default_rng(seed)
    transitions = text._markov_transition_matrix(vocab_size, branching, rng)
    stream = np.empty(num_sequences * (seq_len + 1), dtype=np.int64)
    stream[0] = rng.integers(0, vocab_size)
    for t in range(1, stream.size):
        stream[t] = rng.choice(vocab_size, p=transitions[stream[t - 1]])
    return stream.reshape(num_sequences, seq_len + 1)


class TestArrayDataset:
    def test_length_and_subset(self, rng):
        ds = ArrayDataset(inputs=rng.normal(size=(10, 3)), targets=rng.integers(0, 2, size=10))
        assert len(ds) == 10
        sub = ds.subset(np.array([0, 5]))
        assert len(sub) == 2
        assert np.allclose(sub.inputs[1], ds.inputs[5])

    def test_mismatched_lengths_rejected(self, rng):
        with pytest.raises(ValueError):
            ArrayDataset(inputs=rng.normal(size=(5, 2)), targets=np.zeros(4))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ArrayDataset(inputs=np.zeros((0, 2)), targets=np.zeros(0))


class TestBlobs:
    def test_shapes_and_classes(self):
        ds = make_blobs_classification(num_examples=100, num_features=8, num_classes=5, seed=0)
        assert ds.inputs.shape == (100, 8)
        assert set(np.unique(ds.targets)) <= set(range(5))

    def test_separable_with_low_noise(self):
        ds = make_blobs_classification(num_examples=200, num_classes=3, class_separation=5.0, noise=0.1, seed=1)
        # Nearest-centroid classification should be nearly perfect.
        centroids = np.stack([ds.inputs[ds.targets == c].mean(axis=0) for c in range(3)])
        preds = np.argmin(((ds.inputs[:, None, :] - centroids[None]) ** 2).sum(axis=2), axis=1)
        assert np.mean(preds == ds.targets) > 0.95

    def test_deterministic_given_seed(self):
        a = make_blobs_classification(seed=7)
        b = make_blobs_classification(seed=7)
        assert np.allclose(a.inputs, b.inputs)

    def test_too_few_examples_rejected(self):
        with pytest.raises(ValueError):
            make_blobs_classification(num_examples=3, num_classes=10)


class TestRegression:
    def test_linear_structure(self):
        ds = make_regression(num_examples=500, num_features=4, noise=0.01, seed=0)
        coef, *_ = np.linalg.lstsq(ds.inputs, ds.targets.ravel(), rcond=None)
        residual = ds.targets.ravel() - ds.inputs @ coef
        assert np.std(residual) < 0.05


class TestImages:
    def test_shape(self):
        ds = make_image_classification(num_examples=32, num_classes=4, channels=3, image_size=8, seed=0)
        assert ds.inputs.shape == (32, 3, 8, 8)

    def test_class_structure_present(self):
        # Same-class images correlate more than different-class images.
        ds = make_image_classification(num_examples=200, num_classes=4, image_size=8, noise=0.2, seed=0)
        flat = ds.inputs.reshape(len(ds), -1)
        same, diff = [], []
        for i in range(0, 100, 2):
            for j in range(i + 1, min(i + 10, 200)):
                corr = np.corrcoef(flat[i], flat[j])[0, 1]
                (same if ds.targets[i] == ds.targets[j] else diff).append(corr)
        assert np.mean(same) > np.mean(diff)

    def test_too_small_image_rejected(self):
        with pytest.raises(ValueError):
            make_image_classification(image_size=2)


class TestLanguageModeling:
    def test_targets_are_shifted_inputs(self):
        ds = make_language_modeling(num_sequences=16, seq_len=10, vocab_size=20, seed=0)
        assert ds.inputs.shape == (16, 10)
        assert np.array_equal(ds.inputs[:, 1:], ds.targets[:, :-1])

    def test_tokens_in_vocab(self):
        ds = make_language_modeling(vocab_size=30, seed=1)
        assert ds.inputs.min() >= 0 and ds.inputs.max() < 30

    def test_markov_structure_learnable(self):
        # Bigram statistics should beat the unigram baseline in log-likelihood.
        ds = make_language_modeling(num_sequences=200, seq_len=20, vocab_size=16, seed=2)
        tokens = np.concatenate([ds.inputs.ravel(), ds.targets[:, -1]])
        vocab = 16
        unigram = np.bincount(tokens, minlength=vocab) + 1.0
        unigram /= unigram.sum()
        bigram = np.ones((vocab, vocab))
        for a, b in zip(tokens[:-1], tokens[1:]):
            bigram[a, b] += 1
        bigram /= bigram.sum(axis=1, keepdims=True)
        ll_uni = np.mean(np.log(unigram[tokens[1:]]))
        ll_bi = np.mean(np.log(bigram[tokens[:-1], tokens[1:]]))
        assert ll_bi > ll_uni + 0.1

    def test_subset(self):
        ds = make_language_modeling(num_sequences=10, seed=0)
        sub = ds.subset(np.array([1, 3]))
        assert len(sub) == 2
        assert sub.vocab_size == ds.vocab_size

    @pytest.mark.parametrize("kwargs", [{"vocab_size": 1}, {"seq_len": 1}])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            make_language_modeling(**kwargs)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("vocab_size", [2, 16, 64, 301])
    @pytest.mark.parametrize("branching", [1, 4, 64])
    def test_tokens_equal_one_choice_per_token(self, seed, vocab_size, branching):
        ds = make_language_modeling(
            num_sequences=12, seq_len=9, vocab_size=vocab_size, branching=branching, seed=seed
        )
        windows = reference_language_modeling(12, 9, vocab_size, branching=branching, seed=seed)
        assert ds.inputs.dtype == ds.targets.dtype == np.int64
        assert np.array_equal(ds.inputs, windows[:, :-1])
        assert np.array_equal(ds.targets, windows[:, 1:])

    def test_proxy_corpus_equals_one_choice_per_token(self):
        # The LSTM-PTB proxy's corpus, at its configured size.
        ds = make_language_modeling(num_sequences=160, seq_len=16, vocab_size=64, seed=0)
        windows = reference_language_modeling(160, 16, 64, seed=0)
        assert np.array_equal(ds.inputs, windows[:, :-1])
        assert np.array_equal(ds.targets, windows[:, 1:])


class TestSequences:
    def test_shape(self):
        ds = make_sequence_classification(num_examples=24, num_classes=4, seq_len=8, num_features=6, seed=0)
        assert ds.inputs.shape == (24, 8, 6)
        assert ds.targets.shape == (24,)

    def test_temporal_structure(self):
        # Same-class sequences are closer in L2 than different-class ones.
        ds = make_sequence_classification(num_examples=100, num_classes=3, noise=0.1, seed=1)
        flat = ds.inputs.reshape(len(ds), -1)
        same, diff = [], []
        for i in range(50):
            for j in range(i + 1, 60):
                dist = np.linalg.norm(flat[i] - flat[j])
                (same if ds.targets[i] == ds.targets[j] else diff).append(dist)
        assert np.mean(same) < np.mean(diff)

    def test_short_sequences_rejected(self):
        with pytest.raises(ValueError):
            make_sequence_classification(seq_len=2)
