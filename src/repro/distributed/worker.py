"""A simulated data-parallel worker.

Each worker owns a data shard, a compressor instance (with its own adaptive
state) and an error-feedback memory.  Because the trainer applies identical
aggregated updates on every replica, the model object itself is shared across
workers (mathematically equivalent to N identical replicas and N times
cheaper to simulate); everything that genuinely differs per worker — data
order, residual memory, compressor state, local loss — lives here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..compressors.base import Compressor, CompressionResult
from ..data.loader import BatchIterator
from ..nn.losses import cross_entropy
from ..nn.module import Module
from ..optim.clip import clip_flat_by_norm
from ..optim.error_feedback import ErrorFeedback
from ..tensor.flatten import FlatSpec, flatten


@dataclass
class WorkerStep:
    """Everything one worker produced for one training iteration."""

    loss: float
    compression: CompressionResult
    gradient_norm: float
    corrected_gradient: np.ndarray


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
        self.flat_spec: FlatSpec = FlatSpec.from_named_shapes(
            {name: p.shape for name, p in model.named_parameters().items()}
        )
        self.error_feedback = ErrorFeedback(self.flat_spec.total_size) if use_error_feedback else None

    def compute_gradient(self) -> tuple[float, np.ndarray]:
        """Run one forward/backward on the next local batch; return (loss, flat gradient)."""
        inputs, targets = self.batches.next_batch()
        self.model.zero_grad()
        logits = self.model(inputs)
        loss, grad_logits = cross_entropy(logits, targets)
        self.model.backward(grad_logits)
        flat, _ = flatten(self.model.gradient_dict(), self.flat_spec)
        return loss, flat

    def step(self, ratio: float) -> WorkerStep:
        """Compute, (optionally) clip + error-correct, and compress this worker's gradient."""
        loss, flat = self.compute_gradient()
        if self.clip_norm is not None:
            flat, _ = clip_flat_by_norm(flat, self.clip_norm)
        gradient_norm = float(np.linalg.norm(flat))

        if self.error_feedback is not None:
            corrected = self.error_feedback.correct(flat)
        else:
            corrected = flat
        result = self.compressor.compress(corrected, ratio)
        if self.error_feedback is not None:
            self.error_feedback.update(corrected, result.sparse)
        return WorkerStep(
            loss=loss,
            compression=result,
            gradient_norm=gradient_norm,
            corrected_gradient=corrected,
        )

    def reset(self) -> None:
        """Clear per-run state (compressor adaptation and residual memory)."""
        self.compressor.reset()
        if self.error_feedback is not None:
            self.error_feedback.reset()
