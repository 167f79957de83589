"""Tests for the synthetic gradient generators (the realistic one and the test fixtures).

``realistic_gradient`` is held bit for bit to the plain three-draw mixture
(:func:`where_formula`), on the calling thread and with its blocks shared
between threads; small cases shrink the block size so that helpers draw at
test sizes.
"""

import contextlib
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro import blockpool
from repro.gradients import MODEL_DIMENSIONS, realistic_gradient, synthetic
from repro.gradients.synthetic import _BLOCK, _CHUNK
from repro.stats import Exponential, fit_power_law_decay
from tests.synthetic import (
    double_gamma_gradient,
    double_gpareto_gradient,
    evolving_gradients,
    laplace_gradient,
    model_sized_gradient,
    sid_gradient,
)

#: ``(sparsity, bulk_scale, tail_scale)``: the defaults, and a heavier tail.
MIXTURES = [(0.9, 1e-4, 5e-3), (0.55, 3e-4, 2e-2)]

needs_two_cpus = pytest.mark.skipif(
    blockpool._cpus() < 2, reason="one CPU: every block is drawn on the caller"
)


@contextlib.contextmanager
def block_elements(size: int):
    """Draw in blocks of ``size`` elements, so that small draws share blocks with helpers."""
    saved = synthetic._BLOCK
    synthetic._BLOCK = size
    try:
        yield
    finally:
        synthetic._BLOCK = saved


def where_formula(size, rng, sparsity=0.9, bulk_scale=1e-4, tail_scale=5e-3) -> np.ndarray:
    """``np.where(uniform < sparsity, bulk, tail)`` over three full-size draws from ``rng``."""
    is_bulk = rng.uniform(size=size) < sparsity
    bulk = rng.laplace(0.0, bulk_scale, size=size)
    tail = rng.laplace(0.0, tail_scale, size=size)
    return np.where(is_bulk, bulk, tail)


def zero_at(position: int) -> np.random.Generator:
    """A PCG64 generator whose output ``position`` (from 0) is 0, so its uniform there is 0.0.

    PCG64 steps its 128-bit state, then outputs the XOR of the new state's
    halves rotated; a state with equal halves outputs 0.  Stepping back
    ``position + 1`` times from one is an advance by ``2**128 - position - 1``.
    """
    bits = np.random.PCG64(7)
    state = bits.state
    state["state"]["state"] = (0x0123456789ABCDEF << 64) | 0x0123456789ABCDEF
    bits.state = state
    return np.random.Generator(bits.advance(2**128 - position - 1))


class TestSIDGenerators:
    def test_laplace_statistics(self):
        g = laplace_gradient(200_000, scale=1e-3, seed=0)
        assert abs(np.mean(g)) < 1e-4
        assert np.isclose(np.mean(np.abs(g)), 1e-3, rtol=0.05)
        fitted = Exponential.fit(np.abs(g))
        assert np.isclose(fitted.scale, 1e-3, rtol=0.05)

    def test_gamma_gradient_more_peaked_than_laplace(self):
        gamma = double_gamma_gradient(200_000, shape=0.3, scale=1e-3, seed=0)
        lap = laplace_gradient(200_000, scale=np.mean(np.abs(gamma)), seed=0)
        # Same mean magnitude, but the gamma version has more mass near zero.
        threshold = np.mean(np.abs(gamma)) * 0.1
        assert np.mean(np.abs(gamma) < threshold) > np.mean(np.abs(lap) < threshold)

    def test_gpareto_gradient_heavy_tail(self):
        g = double_gpareto_gradient(200_000, shape=0.3, scale=1e-3, seed=0)
        ratio = np.quantile(np.abs(g), 0.999) / np.quantile(np.abs(g), 0.5)
        lap = laplace_gradient(200_000, scale=1e-3, seed=0)
        lap_ratio = np.quantile(np.abs(lap), 0.999) / np.quantile(np.abs(lap), 0.5)
        assert ratio > lap_ratio

    def test_dispatch_by_name(self):
        for sid in ("exponential", "gamma", "gpareto"):
            g = sid_gradient(sid, 1000, seed=0)
            assert g.shape == (1000,)
        with pytest.raises(ValueError):
            sid_gradient("gaussian", 100)

    def test_deterministic_given_seed(self):
        assert np.allclose(laplace_gradient(100, seed=5), laplace_gradient(100, seed=5))


class TestRealisticGradient:
    def test_compressible(self):
        report = fit_power_law_decay(realistic_gradient(100_000, seed=0))
        assert report.is_compressible

    def test_sparsity_parameter_controls_bulk(self):
        sparse = realistic_gradient(100_000, sparsity=0.99, seed=0)
        dense = realistic_gradient(100_000, sparsity=0.5, seed=0)
        cutoff = 5e-4
        assert np.mean(np.abs(sparse) < cutoff) > np.mean(np.abs(dense) < cutoff)

    def test_invalid_sparsity_rejected(self):
        with pytest.raises(ValueError):
            realistic_gradient(100, sparsity=1.0)

    @pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf, -1e-4])
    @pytest.mark.parametrize("name", ["bulk_scale", "tail_scale"])
    def test_non_finite_or_negative_scale_rejected(self, name, scale):
        with pytest.raises(ValueError, match=name):
            realistic_gradient(100, seed=0, **{name: scale})

    @pytest.mark.parametrize("name", ["bulk_scale", "tail_scale"])
    def test_zero_scale_allowed(self, name):
        g = realistic_gradient(1000, seed=0, **{name: 0.0})
        assert np.all(np.isfinite(g))
        assert np.count_nonzero(g == 0.0) > 0

    @pytest.mark.parametrize(
        "size", [0, 1, 7, 10_000, 250_001, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 1]
    )
    @pytest.mark.parametrize("seed", [0, 3, 2021])
    @pytest.mark.parametrize("sparsity, bulk_scale, tail_scale", MIXTURES)
    def test_equals_the_where_formula(self, size, seed, sparsity, bulk_scale, tail_scale):
        # Built in place from chunked draws, but bit-for-bit the three-draw
        # ``np.where`` mixture.
        expected = where_formula(
            size, np.random.default_rng(seed), sparsity, bulk_scale, tail_scale
        )
        actual = realistic_gradient(
            size, sparsity=sparsity, bulk_scale=bulk_scale, tail_scale=tail_scale, seed=seed
        )
        assert actual.dtype == expected.dtype
        assert actual.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "size, seed, sparsity, bulk_scale, tail_scale",
        [
            (_BLOCK - 1, 0, *MIXTURES[0]),
            (_BLOCK, 3, *MIXTURES[1]),
            (_BLOCK + 1, 2021, *MIXTURES[0]),  # the last block is one element
            (3 * _BLOCK + 7, 5, *MIXTURES[1]),
        ],
    )
    def test_blocks_at_full_size_equal_the_where_formula(
        self, size, seed, sparsity, bulk_scale, tail_scale
    ):
        expected = where_formula(
            size, np.random.default_rng(seed), sparsity, bulk_scale, tail_scale
        )
        actual = realistic_gradient(
            size, sparsity=sparsity, bulk_scale=bulk_scale, tail_scale=tail_scale, seed=seed
        )
        assert actual.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "block, size",
        [
            (1000, 1001),
            (1000, 2001),
            (1000, 10_000),
            (4096, 3 * _CHUNK + 1),
            (_CHUNK + 5, 2 * _CHUNK + 11),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 3, 2021])
    @pytest.mark.parametrize("sparsity, bulk_scale, tail_scale", MIXTURES)
    def test_shared_blocks_equal_the_where_formula(
        self, block, size, seed, sparsity, bulk_scale, tail_scale
    ):
        expected = where_formula(
            size, np.random.default_rng(seed), sparsity, bulk_scale, tail_scale
        )
        with block_elements(block):
            actual = realistic_gradient(
                size, sparsity=sparsity, bulk_scale=bulk_scale, tail_scale=tail_scale, seed=seed
            )
        assert actual.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("size", [-1, 2.5, "4", None])
    def test_size_must_be_a_non_negative_integer(self, size):
        with pytest.raises(ValueError, match="size"):
            realistic_gradient(size, seed=0)

    def test_numpy_integer_size_accepted(self):
        expected = realistic_gradient(1000, seed=4)
        assert realistic_gradient(np.int64(1000), seed=4).tobytes() == expected.tobytes()

    def test_peak_allocation_stays_near_the_output(self):
        # The output, a bool mask and one chunk: three full-size draws read 2.13x.
        size = 1 << 22
        tracemalloc.start()
        try:
            g = realistic_gradient(size, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * g.nbytes


class TestSharedBlocks:
    @pytest.mark.parametrize(
        "stream, block, redraw",
        [
            ("uniform", 1, False),  # a uniform takes 0.0 as drawn
            ("bulk", 0, True),
            ("bulk", 2, True),
            ("bulk", 4, True),  # the tail stream's first block starts one short
            ("tail", 1, True),
            ("tail", 4, False),  # nothing is drawn after the last block
        ],
    )
    def test_a_rejected_zero_uniform_keeps_the_serial_bytes(
        self, monkeypatch, stream, block, redraw
    ):
        # Five blocks, the last of 7 elements.  A Laplace draw rejects a zero
        # uniform and takes the next output, so every later block would start
        # one output early; the draw is then redone serially.
        size, position = 4007, 3 + 1000 * block
        position += ["uniform", "bulk", "tail"].index(stream) * size
        assert zero_at(position).random(position + 1)[-1] == 0.0
        serial = zero_at(position)
        expected = where_formula(size, serial)
        redraws, mixture = [], synthetic._mixture

        def watched(streams, out, is_tail, lo, hi, *params):
            if streams[0] is streams[1] is streams[2]:
                redraws.append((lo, hi))
            mixture(streams, out, is_tail, lo, hi, *params)

        monkeypatch.setattr(synthetic, "_mixture", watched)
        rng = zero_at(position)
        with block_elements(1000):
            actual = realistic_gradient(size, seed=rng)
        assert actual.tobytes() == expected.tobytes()
        assert redraws == ([(0, size)] if redraw else [])
        assert rng.bit_generator.state == serial.bit_generator.state

    def test_a_caller_generator_ends_where_the_serial_draw_leaves_it(self):
        # ``default_rng`` hands a Generator through; its next draws follow the mixture's.
        for bits in (np.random.PCG64(8), np.random.MT19937(8)):
            serial, rng = np.random.Generator(bits), np.random.Generator(type(bits)(8))
            expected = where_formula(3001, serial)
            with block_elements(1000):
                actual = realistic_gradient(3001, seed=rng)
            assert actual.tobytes() == expected.tobytes()
            assert rng.random(5).tobytes() == serial.random(5).tobytes()

    @needs_two_cpus
    def test_a_helper_draws_blocks(self, monkeypatch):
        # Neither thread draws on until both hold a block.
        meet, drawers, mixture = threading.Barrier(2, timeout=30), set(), synthetic._mixture

        def meeting(streams, *args):
            if threading.get_ident() not in drawers:
                drawers.add(threading.get_ident())
                meet.wait()
            mixture(streams, *args)

        monkeypatch.setattr(synthetic, "_mixture", meeting)
        with block_elements(1000):
            actual = realistic_gradient(4000, seed=11)
        assert len(drawers) == 2
        assert actual.tobytes() == where_formula(4000, np.random.default_rng(11)).tobytes()

    def test_more_threads_than_cpus_switching_often_keep_the_bits(self, monkeypatch):
        # Four threads (the cap) share 50 blocks, switching every microsecond.
        monkeypatch.setattr(blockpool, "_cpus", lambda: blockpool.MAX_BLOCK_THREADS)
        expected = where_formula(50_000, np.random.default_rng(12)).tobytes()
        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with block_elements(1000):
                drawn = [realistic_gradient(50_000, seed=12).tobytes() for _ in range(3)]
        finally:
            sys.setswitchinterval(saved)
        assert drawn == [expected] * 3

    def test_threads_with_different_cpu_counts_draw_side_by_side(self, monkeypatch):
        # Affinity masks are per thread, so two threads may ask for pools of
        # different sizes.  Each takes its pool, then waits until the other
        # has replaced it with its own: the replaced pool must still run work.
        cpus, meet = threading.local(), threading.Barrier(2, timeout=30)
        pool = blockpool._helper_pool

        def pool_then_meet(helpers):
            kept = pool(helpers)
            meet.wait()
            return kept

        monkeypatch.setattr(blockpool, "_cpus", lambda: cpus.count)
        monkeypatch.setattr(blockpool, "_helper_pool", pool_then_meet)
        expected = where_formula(10_000, np.random.default_rng(9)).tobytes()
        drawn, failures = {}, []

        def draw(count):
            cpus.count = count
            try:
                drawn[count] = [realistic_gradient(10_000, seed=9).tobytes() for _ in range(3)]
            except BaseException as exc:
                failures.append(exc)
                meet.abort()

        with block_elements(1000):
            threads = [threading.Thread(target=draw, args=(count,)) for count in (2, 3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert drawn == {2: [expected] * 3, 3: [expected] * 3}

    def test_concurrent_futures_stays_unloaded_by_one_block_draws(self):
        # A fresh interpreter: pytest itself may have it loaded.
        src = Path(synthetic.__file__).resolve().parents[2]
        path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        run = subprocess.run(
            [sys.executable, "-c", _ONE_BLOCK_DRAWS],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert run.stdout.split() == ["False"]


#: The planner's proxy-sized draw and a draw of one whole block, then whether
#: the thread pool's module loaded.
_ONE_BLOCK_DRAWS = """
import sys
from repro.gradients import realistic_gradient
from repro.gradients.synthetic import _BLOCK
realistic_gradient(32_768, seed=0)
realistic_gradient(_BLOCK, seed=1)
print("concurrent.futures" in sys.modules)
"""


class TestModelSized:
    def test_known_dimensions(self):
        assert MODEL_DIMENSIONS["vgg16"] == 14_982_987
        assert MODEL_DIMENSIONS["lstm-ptb"] == 66_034_000

    def test_cap_respected(self):
        g = model_sized_gradient("vgg16", max_elements=10_000, seed=0)
        assert g.size == 10_000

    def test_small_model_uncapped(self):
        g = model_sized_gradient("resnet20", seed=0)
        assert g.size == MODEL_DIMENSIONS["resnet20"]

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            model_sized_gradient("bert")


class TestEvolvingGradients:
    def test_sparsity_increases_over_iterations(self):
        grads = evolving_gradients(50_000, 20, seed=0)
        assert len(grads) == 20
        cutoff = 1e-4
        early = np.mean(np.abs(grads[0]) < cutoff)
        late = np.mean(np.abs(grads[-1]) < cutoff)
        assert late > early

    def test_scale_decreases_over_iterations(self):
        grads = evolving_gradients(50_000, 20, seed=1)
        assert np.mean(np.abs(grads[-1])) < np.mean(np.abs(grads[0]))

    def test_invalid_iterations_rejected(self):
        with pytest.raises(ValueError):
            evolving_gradients(100, 0)
