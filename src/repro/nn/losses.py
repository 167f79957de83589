"""Loss functions with analytic gradients."""

from __future__ import annotations

import numpy as np


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def cross_entropy(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy loss and its gradient with respect to the logits.

    ``logits`` may be ``(N, C)`` for classification or ``(N, T, C)`` for
    sequence models; ``targets`` holds integer class ids with the matching
    leading shape.  The gradient is averaged over every prediction (batch and
    time), matching the per-example averaging of the optimisers in Appendix A.
    """
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    if logits.shape[:-1] != targets.shape:
        raise ValueError(f"targets shape {targets.shape} does not match logits {logits.shape[:-1]}")
    num_classes = logits.shape[-1]
    flat_logits = logits.reshape(-1, num_classes)
    flat_targets = targets.reshape(-1)
    if flat_targets.min() < 0 or flat_targets.max() >= num_classes:
        raise ValueError("target class id out of range")
    probs = softmax(flat_logits)
    n = flat_targets.size
    nll = -np.log(np.maximum(probs[np.arange(n), flat_targets], 1e-300))
    loss = float(nll.mean())
    grad = probs
    grad[np.arange(n), flat_targets] -= 1.0
    grad /= n
    return loss, grad.reshape(logits.shape)


def accuracy(logits: np.ndarray, targets: np.ndarray) -> float:
    """Top-1 accuracy for classification logits."""
    logits = np.asarray(logits)
    targets = np.asarray(targets, dtype=np.int64)
    preds = logits.argmax(axis=-1)
    return float(np.mean(preds.reshape(-1) == targets.reshape(-1)))


def perplexity(loss: float) -> float:
    """Perplexity from a mean cross-entropy loss (the PTB quality metric)."""
    return float(np.exp(min(loss, 700.0)))
