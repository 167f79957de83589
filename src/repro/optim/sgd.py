"""SGD optimisers (vanilla, momentum, Nesterov momentum) over named gradients.

The distributed trainer aggregates a *flat* gradient across workers and hands
the optimiser a dict of named per-parameter gradients (the unflattened view).
Keeping the update decoupled from ``Parameter.grad`` is what lets every worker
apply the *aggregated* gradient rather than its local one, exactly like the
synchronous SGD of Appendix A / Algorithm 2.
"""

from __future__ import annotations

import numpy as np

from ..nn.module import Module


class SGD:
    """Stochastic gradient descent with optional (Nesterov) momentum and weight decay.

    Parameters
    ----------
    model:
        The model whose parameters this optimiser updates.
    lr:
        Learning rate.
    momentum:
        Momentum coefficient (0 disables momentum).
    nesterov:
        Use the Nesterov look-ahead form (the paper's ImageNet / RNN recipes).
    weight_decay:
        L2 regularisation coefficient added to the gradient before the update.
    """

    def __init__(
        self,
        model: Module,
        lr: float = 0.1,
        momentum: float = 0.0,
        nesterov: bool = False,
        weight_decay: float = 0.0,
    ) -> None:
        if lr <= 0.0:
            raise ValueError(f"lr must be positive, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if nesterov and momentum == 0.0:
            raise ValueError("Nesterov momentum requires momentum > 0")
        if weight_decay < 0.0:
            raise ValueError("weight_decay must be non-negative")
        self.model = model
        self.lr = lr
        self.momentum = momentum
        self.nesterov = nesterov
        self.weight_decay = weight_decay
        self._velocity: dict[str, np.ndarray] = {}

    def step(self, gradients: dict[str, np.ndarray] | None = None) -> None:
        """Apply one update.

        ``gradients`` maps parameter names (as in ``model.named_parameters()``)
        to gradient arrays; when omitted, each parameter's own accumulated
        ``.grad`` is used (single-worker training).
        """
        params = self.model.named_parameters()
        if gradients is None:
            gradients = {name: p.grad for name, p in params.items()}
        for name, param in params.items():
            if name not in gradients:
                raise KeyError(f"missing gradient for parameter {name!r}")
            grad = np.asarray(gradients[name], dtype=np.float64)
            if grad.shape != param.data.shape:
                raise ValueError(
                    f"gradient shape {grad.shape} does not match parameter {name!r} shape {param.data.shape}"
                )
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity = self._velocity.get(name)
                if velocity is None:
                    velocity = np.zeros_like(param.data)
                velocity = self.momentum * velocity + grad
                self._velocity[name] = velocity
                update = grad + self.momentum * velocity if self.nesterov else velocity
            else:
                update = grad
            param.data -= self.lr * update
