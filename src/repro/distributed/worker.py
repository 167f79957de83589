"""A simulated data-parallel worker and the one gradient path all workers share.

Each worker owns a data shard, a compressor instance (with its own adaptive
state) and an error-feedback memory.  Because the trainer applies identical
aggregated updates on every replica, the model object itself is shared across
workers (mathematically equivalent to N identical replicas); everything that
genuinely differs per worker — data order, residual memory, compressor state,
local loss — lives here.

Sharing the model also lets workers share a pass: :func:`compute_gradients`
stacks the batches of up to ``model.worker_group`` workers into one forward
and one backward, so a group of G workers costs one pass's NumPy call overhead
instead of G.  Every worker's loss and gradient stay bit-for-bit what its own
pass gives.

:func:`compress_gradients` then clips, error-corrects and compresses the
``(G, D)`` matrix in one call, bit-for-bit what each worker's own call gives.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence

import numpy as np

from ..compressors.base import Compressor, CompressionResult
from ..data.loader import BatchIterator
from ..nn.losses import cross_entropy
from ..nn.module import Module, Parameter
from ..optim.clip import clip_flat_by_norm
from ..optim.error_feedback import ErrorFeedback
from ..tensor.flatten import FlatSpec, flatten


class Worker:
    """One data-parallel worker in the synchronous SGD simulation."""

    def __init__(
        self,
        worker_id: int,
        model: Module,
        batches: BatchIterator,
        compressor: Compressor,
        *,
        use_error_feedback: bool = True,
        clip_norm: float | None = None,
        flat_spec: FlatSpec | None = None,
    ) -> None:
        self.worker_id = worker_id
        self.model = model
        self.batches = batches
        self.compressor = compressor
        self.clip_norm = clip_norm
        #: Cluster membership this iteration, maintained by the trainer's
        #: fault layer (worker churn).  An inactive worker skips the step
        #: entirely: its batch stream does not advance and it contributes no
        #: gradient.  Always True on fault-free runs.
        self.active = True
        if flat_spec is None:
            flat_spec = FlatSpec.from_named_shapes(
                {name: p.shape for name, p in model.named_parameters().items()}
            )
        #: Layout of the flat gradient; a trainer's workers share one.
        self.flat_spec = flat_spec
        self.error_feedback = ErrorFeedback(self.flat_spec.total_size) if use_error_feedback else None


def compute_gradients(
    workers: Sequence[Worker], *, iteration: int | None = None
) -> Iterator[tuple[Worker, float, np.ndarray]]:
    """Yield ``(worker, loss, flat gradient)`` for each worker's next batch, in worker order.

    The workers share one model and one ``FlatSpec``.  Consecutive workers
    whose batches have equal shapes form groups of at most
    ``model.worker_group``; each group runs one forward and one backward over
    its stacked batches (a group of one runs the ordinary unstacked pass),
    takes each worker's loss from its own slice of the logits, and packs the
    group's gradients into one ``(G, D)`` matrix.  A group's rows are yielded
    before the next group runs, so only one group's pass is alive at a time.
    Raises ``ValueError`` naming the worker (and ``iteration``, when given)
    if a loss or a gradient is not finite.
    """
    model = workers[0].model
    if any(worker.model is not model for worker in workers):
        raise ValueError("workers in one gradient pass must share one model")
    batches = [worker.batches.next_batch() for worker in workers]
    params = model.named_parameters()
    start = 0
    try:
        while start < len(workers):
            shapes = (batches[start][0].shape, batches[start][1].shape)
            stop = start + 1
            while (
                stop < len(workers)
                and stop - start < model.worker_group
                and (batches[stop][0].shape, batches[stop][1].shape) == shapes
            ):
                stop += 1
            group = workers[start:stop]
            losses, rows = _group_pass(model, params, batches[start:stop], workers[0].flat_spec)
            _check_finite(group, losses, rows, iteration)
            yield from zip(group, losses, rows)
            start = stop
    finally:
        if model.workers is not None:
            # Leave the shared model set up for ordinary unstacked calls.
            model.zero_grad()


def compress_gradients(
    workers: Sequence[Worker], rows: np.ndarray, ratio: float
) -> tuple[list[CompressionResult], list[float]]:
    """(Optionally) clip + error-correct, and compress every worker's row of the ``(G, D)`` ``rows``.

    Clipping and correction overwrite ``rows``, which ends up holding the
    compressed gradients.  Returns the compression results and each clipped
    gradient's L2 norm.
    """
    first = workers[0]
    if first.clip_norm is not None:
        for row in rows:
            row[:] = clip_flat_by_norm(row, first.clip_norm)[0]
    norms = [float(np.linalg.norm(row)) for row in rows]
    memories = [] if first.error_feedback is None else [worker.error_feedback for worker in workers]
    for memory, row in zip(memories, rows):
        memory.correct(row, out=row)
    results = first.compressor.compress_group(rows, ratio, [worker.compressor for worker in workers])
    for memory, row, result in zip(memories, rows, results):
        memory.update(row, result.sparse)
    return results, norms


def _group_pass(
    model: Module,
    params: dict[str, Parameter],
    batches: list[tuple[np.ndarray, np.ndarray]],
    spec: FlatSpec,
) -> tuple[list[float], np.ndarray]:
    """One forward and backward over a group's batches: its losses and ``(G, D)`` gradients."""
    if len(batches) == 1:
        model.zero_grad()
        [(inputs, targets)] = batches
        loss, grad_logits = cross_entropy(model(inputs), targets)
        model.backward(grad_logits)
        grads = {name: param.grad for name, param in params.items()}
        return [loss], flatten(grads, spec)[0][None]
    model.zero_grad(workers=len(batches))
    logits = model(np.stack([inputs for inputs, _ in batches]))
    grad_logits = np.empty_like(logits)
    losses = []
    for row, (_, targets) in enumerate(batches):
        loss, grad_logits[row] = cross_entropy(logits[row], targets)
        losses.append(loss)
    model.backward(grad_logits)
    grads = {name: param.grad for name, param in params.items()}
    return losses, flatten(grads, spec, workers=len(batches))[0]


def _check_finite(
    group: Sequence[Worker], losses: list[float], rows: np.ndarray, iteration: int | None
) -> None:
    """Raise ``ValueError`` on the first worker of ``group`` with a non-finite loss or gradient."""
    if all(math.isfinite(loss) for loss in losses) and np.isfinite(rows).all():
        return
    for worker, loss, row in zip(group, losses, rows):
        if not math.isfinite(loss) or not np.isfinite(row).all():
            where = "" if iteration is None else f" at iteration {iteration}"
            raise ValueError(
                f"worker {worker.worker_id} produced a non-finite loss or gradient{where}"
            )
