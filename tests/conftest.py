"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.data import make_image_classification, make_language_modeling
from repro.gradients import realistic_gradient

from .synthetic import make_blobs_classification


@pytest.fixture(autouse=True)
def _seed_global_rngs():
    """Pin every global RNG before each test.

    Library and test code must take explicit seeds / generators, but anything
    that accidentally falls through to the legacy module-level state
    (``np.random.*`` or the stdlib ``random``) still behaves deterministically
    and identically no matter which subset of tests runs or in which order.
    """
    random.seed(0x5EEDC0)
    np.random.seed(0x5EEDC0)
    yield


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_gradient() -> np.ndarray:
    """A 20k-element realistic (mixture) gradient used across compressor tests."""
    return realistic_gradient(20_000, seed=7)


@pytest.fixture
def medium_gradient() -> np.ndarray:
    """A 100k-element realistic gradient for estimation-quality tests."""
    return realistic_gradient(100_000, seed=11)


@pytest.fixture
def blobs_dataset():
    return make_blobs_classification(num_examples=128, num_features=16, num_classes=4, seed=3)


@pytest.fixture
def image_dataset():
    return make_image_classification(num_examples=64, num_classes=4, image_size=8, seed=3)


@pytest.fixture
def lm_dataset():
    return make_language_modeling(num_sequences=48, seq_len=8, vocab_size=24, seed=3)


@pytest.fixture
def two_fabric_schedule():
    """Factory for the canonical two-fabric workload, scheduled either way.

    Three hierarchical-style buckets (gather/broadcast on ``intra``, exchange
    on ``inter``, back-to-back) with reverse-order readiness; ``build(cross)``
    runs them under ``overlap="comm"`` on the serial network lane (``False``)
    or the per-link lanes (``True``) and checks the schedule's invariants.
    Shared by the schedule- and reporting-level link-utilisation tests.
    """
    from repro.distributed import simulate_iteration_arrays

    from .schedule_checks import check_schedule

    def build(cross: bool):
        schedule = simulate_iteration_arrays(
            ready_seconds=[0.3 * (3 - i) / 3 for i in range(3)],
            compress_seconds=[0.01] * 3,
            phase_seconds=[[0.1, 0.5, 0.08]] * 3,
            phase_names=("gather", "exchange", "broadcast"),
            phase_links=("intra", "inter", "intra"),
            compute_seconds=0.3,
            overlap="comm",
            cross_bucket_pipeline=cross,
        )
        check_schedule(schedule)
        return schedule

    return build
