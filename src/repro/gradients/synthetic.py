"""Synthetic gradients and the model sizes of Table 1.

The micro-benchmarks (Figures 1, 16, 17) and the planner need gradient-like
vectors of model size: :func:`realistic_gradient` is a mixture that is
deliberately *not* any single SID.  Generating it synthetically exercises
exactly the code path the paper's compressors see — a flat float vector —
without requiring the real training frameworks.

The generator builds its output in place: it draws the uniform stream in
chunks into a bool mask, the bulk stream in chunks into the output, and the
tail stream in chunks copied where the mask selects the tail.  Each stream
is drawn in order, so the bytes are those of the plain three-array mixture,
while the peak allocation is the output, the mask and one chunk per thread:
about 1.13x the output's bytes at VGG16 size, against 2.13x for three
full-size draws.

A draw of two or more blocks of :data:`_BLOCK` elements shares them with
helper threads (:func:`repro.blockpool.drain_blocks`): each block draws its
share of the three streams from its own copies of the seeded generator,
jumped ahead to where the serial draw reaches them
(``bit_generator.advance``).  Only a Laplace draw whose uniform is exactly
0.0 takes a second output, so each block's streams must end where the next
block's start; on any mismatch the whole array is drawn again serially.  A
one-block draw runs the serial code on the calling thread.
"""

from __future__ import annotations

import numpy as np

from ..blockpool import drain_blocks

#: Parameter counts of the models in Table 1 (used for model-sized vectors).
MODEL_DIMENSIONS: dict[str, int] = {
    "resnet20": 269_467,
    "vgg16": 14_982_987,
    "resnet50": 25_559_081,
    "vgg19": 143_671_337,
    "lstm-ptb": 66_034_000,
    "lstm-an4": 43_476_256,
}

#: Synthetic tensor sizes of Figures 16/17 (0.26M, 2.6M, 26M, 260M elements).
SYNTHETIC_TENSOR_SIZES: tuple[int, ...] = (260_000, 2_600_000, 26_000_000, 260_000_000)

#: Elements per chunk of :func:`realistic_gradient`'s draws (512 KiB of doubles).
_CHUNK = 1 << 16

#: Elements per block of :func:`realistic_gradient` that one thread draws
#: (8 MiB of doubles); a draw of two or more blocks shares them with helper
#: threads.
_BLOCK = 1 << 20


def realistic_gradient(
    size: int,
    *,
    sparsity: float = 0.9,
    bulk_scale: float = 1e-4,
    tail_scale: float = 5e-3,
    seed: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Gradient mimicking the empirical shape of DNN gradients (Figure 2).

    A two-component mixture: a dominant near-zero bulk (fraction ``sparsity``)
    with small Laplace scale and a heavier-tailed Laplace component carrying
    the informative coordinates.  The result is compressible in the sense of
    Definition 1 but is *not* exactly any single SID, which is the situation
    the multi-stage estimator is designed for.

    The bytes are ``np.where(u < sparsity, bulk, tail)`` over three
    ``size``-element draws from ``np.random.default_rng(seed)`` in that order
    (uniform, bulk Laplace, tail Laplace), however many threads drew them: a
    draw of more than :data:`_BLOCK` elements is shared between the calling
    thread and helper threads, one block at a time, and checked against the
    serial stream positions (see the module docstring).  A draw of one block
    runs on the calling thread alone.  ``size`` must be a non-negative
    integer.  A Generator passed as ``seed`` (``default_rng`` hands it
    through) is left where the serial draw leaves it.
    """
    if not isinstance(size, (int, np.integer)) or size < 0:
        raise ValueError(f"size must be a non-negative integer, got {size!r}")
    if not 0.0 < sparsity < 1.0:
        raise ValueError(f"sparsity must be in (0, 1), got {sparsity}")
    for name, scale in (("bulk_scale", bulk_scale), ("tail_scale", tail_scale)):
        if not 0.0 <= scale < np.inf:
            raise ValueError(f"{name} must be finite and non-negative, got {scale}")
    size, params = int(size), (sparsity, bulk_scale, tail_scale)
    rng, is_tail = np.random.default_rng(seed), np.empty(size, dtype=bool)
    bounds = [*range(0, size, _BLOCK), size]
    if len(bounds) <= 2 or type(rng.bit_generator) is not np.random.PCG64:
        return _mixture((rng, rng, rng), None, is_tail, 0, size, *params)
    out, seeded, spans = np.empty(size), rng.bit_generator.state, [None] * (len(bounds) - 1)

    def drain(blocks):
        for i in blocks:
            lo, hi = bounds[i], bounds[i + 1]
            streams = [_jumped(seeded, k * size + lo) for k in range(3)]
            starts = [g.bit_generator.state["state"] for g in streams]
            _mixture(streams, out, is_tail, lo, hi, *params)
            ends = [g.bit_generator.state["state"] for g in streams]
            spans[i] = list(zip(starts, ends))

    drain_blocks(len(spans), drain, share=True)
    # The (start, end) states of every block of each stream, in serial order.
    serial = [span[k] for k in range(3) for span in spans]
    if any(end != start for (_, end), (start, _) in zip(serial, serial[1:])):
        _mixture((rng, rng, rng), out, is_tail, 0, size, *params)
    else:  # leave a caller's generator where the serial draw would
        rng.bit_generator.state = {**seeded, "state": serial[-1][1]}
    return out


def _jumped(state: dict, outputs: int) -> np.random.Generator:
    """A generator ``outputs`` PCG64 outputs past ``state``."""
    bits = np.random.PCG64(0)  # a fixed seed skips reading OS entropy; the state is replaced
    bits.state = state
    return np.random.Generator(bits.advance(outputs))


def _mixture(streams, out, is_tail, lo, hi, sparsity, bulk_scale, tail_scale) -> np.ndarray:
    """Draw ``out[lo:hi]`` (and ``is_tail[lo:hi]``) from the uniform, bulk and tail ``streams``.

    Each stream draws its elements in order, so one generator passed as all
    three streams over ``[0, size)`` makes the serial draw.  With ``out``
    None (``lo`` 0), the bulk stream is drawn as the output in one call;
    otherwise it is drawn in chunks into ``out``.  Returns ``out``.
    """
    uniform, bulk, tail = streams
    chunks = [(start, min(start + _CHUNK, hi)) for start in range(lo, hi, _CHUNK)]
    for start, stop in chunks:
        np.greater_equal(uniform.uniform(size=stop - start), sparsity, out=is_tail[start:stop])
    if out is None:
        out = bulk.laplace(0.0, bulk_scale, size=hi)
    else:
        for start, stop in chunks:
            out[start:stop] = bulk.laplace(0.0, bulk_scale, size=stop - start)
    for start, stop in chunks:
        drawn = tail.laplace(0.0, tail_scale, size=stop - start)
        np.copyto(out[start:stop], drawn, where=is_tail[start:stop])
    return out
