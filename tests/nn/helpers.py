"""Numerical gradient-checking helpers shared by the nn tests."""

from __future__ import annotations

import numpy as np

from repro.nn import cross_entropy
from repro.nn.module import Module


def numeric_gradient_check(
    model: Module,
    inputs: np.ndarray,
    targets: np.ndarray,
    *,
    num_probes: int = 6,
    eps: float = 1e-5,
    seed: int = 0,
    workers: int | None = None,
) -> float:
    """Compare analytic parameter gradients to central finite differences.

    Returns the maximum relative error over randomly probed parameter entries.
    With ``workers=W`` the inputs and targets are stacks of W workers' batches,
    and each worker's gradient slice is checked against the finite difference
    of that worker's own loss.
    """

    def forward() -> tuple[list[float], np.ndarray]:
        logits = model(inputs)
        if workers is None:
            loss, grad = cross_entropy(logits, targets)
            return [loss], grad
        pairs = [cross_entropy(logits[w], targets[w]) for w in range(workers)]
        return [loss for loss, _ in pairs], np.stack([grad for _, grad in pairs])

    model.zero_grad(workers=workers)
    _, grad_logits = forward()
    model.backward(grad_logits)

    rng = np.random.default_rng(seed)
    max_err = 0.0
    for param in model.named_parameters().values():
        flat = param.data.ravel()
        grad_rows = param.grad.reshape(workers or 1, -1)
        probes = rng.choice(flat.size, size=min(num_probes, flat.size), replace=False)
        for idx in probes:
            original = flat[idx]
            flat[idx] = original + eps
            losses_plus, _ = forward()
            flat[idx] = original - eps
            losses_minus, _ = forward()
            flat[idx] = original
            for grad_row, loss_plus, loss_minus in zip(grad_rows, losses_plus, losses_minus):
                numeric = (loss_plus - loss_minus) / (2.0 * eps)
                denom = max(1e-7, abs(numeric) + abs(grad_row[idx]))
                max_err = max(max_err, abs(numeric - grad_row[idx]) / denom)
    return max_err


def layer_input_gradient_check(
    layer, x: np.ndarray, *, eps: float = 1e-6, num_probes: int = 6, seed: int = 0, workers: int | None = None
) -> float:
    """Check a single layer's input gradient against finite differences.

    Uses the scalar objective ``0.5 * sum(layer(x)^2)`` whose gradient with
    respect to the layer output is simply the output itself.  With
    ``workers=W``, ``x`` is a stack of W workers' inputs.
    """
    layer.zero_grad(workers=workers)
    out = layer(x)
    grad_input = layer.backward(out.copy())
    rng = np.random.default_rng(seed)
    flat_x = x.ravel()
    flat_grad = grad_input.ravel()
    max_err = 0.0
    probes = rng.choice(flat_x.size, size=min(num_probes, flat_x.size), replace=False)
    for idx in probes:
        original = flat_x[idx]
        flat_x[idx] = original + eps
        loss_plus = 0.5 * float(np.sum(np.asarray(layer(x)) ** 2))
        flat_x[idx] = original - eps
        loss_minus = 0.5 * float(np.sum(np.asarray(layer(x)) ** 2))
        flat_x[idx] = original
        numeric = (loss_plus - loss_minus) / (2.0 * eps)
        denom = max(1e-7, abs(numeric) + abs(flat_grad[idx]))
        max_err = max(max_err, abs(numeric - flat_grad[idx]) / denom)
    return max_err
