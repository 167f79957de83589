"""The per-worker compression loop, kept verbatim: a test oracle.

The trainer clips, error-corrects and compresses every active worker's
gradient in one call over their ``(G, D)`` matrix
(:func:`repro.distributed.worker.compress_gradients`, one
``fit_all_buckets`` over every worker's buckets).  Before that, each worker
ran the body below, one after the other.  :func:`reference_compress_gradients`
keeps that loop, with the same contract as the grouped call, so the
equality suites can hold the grouped call to it with ``np.array_equal`` and
``==``.  It is test-only code: nothing under ``src/`` imports it.
"""

from __future__ import annotations

import numpy as np

from repro.optim.clip import clip_flat_by_norm


def compress_gradient(worker, flat: np.ndarray, ratio: float):
    """One worker's (optional) clip, error correction and compression of one gradient."""
    if worker.clip_norm is not None:
        flat, _ = clip_flat_by_norm(flat, worker.clip_norm)
    gradient_norm = float(np.linalg.norm(flat))

    if worker.error_feedback is not None:
        corrected = worker.error_feedback.correct(flat)
    else:
        corrected = flat
    result = worker.compressor.compress(corrected, ratio)
    if worker.error_feedback is not None:
        worker.error_feedback.update(corrected, result.sparse)
    return result, corrected, gradient_norm


def reference_compress_gradients(workers, rows: np.ndarray, ratio: float):
    """``compress_gradients`` as one :func:`compress_gradient` per worker, in worker order.

    Like the grouped call, it leaves each corrected gradient in ``rows``.
    """
    results, norms = [], []
    for worker, row in zip(workers, rows):
        result, corrected, norm = compress_gradient(worker, row, ratio)
        row[:] = corrected
        results.append(result)
        norms.append(norm)
    return results, norms
