"""Minimal module/parameter abstraction for the NumPy DNN substrate.

The distributed-training simulator needs real models producing real,
training-evolving gradients (Property 1/2 of the paper are statements about
those gradients), but none of the heavyweight framework machinery.  This
module provides the smallest useful contract:

* :class:`Parameter` — a named array with an accumulated gradient,
* :class:`Module` — forward/backward with explicit caches (no autograd tape),
  parameter registration, and named traversal compatible with the
  flatten/unflatten utilities in :mod:`repro.tensor`.

Every module also runs *stacked*: after ``zero_grad(workers=W)`` its input
carries a leading axis of W workers' batches, ``(W, batch, ...)``, and each
parameter gradient becomes ``(W, *shape)``, one slice per worker.  Layers are
written over trailing axes with stacked ``np.matmul`` (one GEMM per worker at
that worker's shapes), so every worker's slice is bit-for-bit what its own
unstacked pass gives.  Only modules whose input rank leaves the worker axis
ambiguous (``Flatten``, ``Embedding``, ``MLPClassifier``, and ``LSTM``'s rank
check) read it from :attr:`Module.workers`.
"""

from __future__ import annotations

import numpy as np


class Parameter:
    """A trainable array and its accumulated gradient."""

    def __init__(self, data: np.ndarray) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros(self.data.shape)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def zero_grad(self, workers: int | None = None) -> None:
        """Zero the gradient; ``workers=W`` shapes it ``(W, *shape)`` for a stacked pass."""
        shape = self.data.shape if workers is None else (workers, *self.data.shape)
        if self.grad.shape == shape:
            self.grad.fill(0.0)
        else:
            self.grad = np.zeros(shape)

    def accumulate(self, contribution: np.ndarray) -> None:
        """Add a gradient contribution, which must have exactly the gradient's shape.

        A stacked contribution never broadcasts into an unstacked gradient, or
        the reverse: the mismatch raises.
        """
        self.check_grad(contribution.shape)
        self.grad += contribution

    def check_grad(self, shape: tuple[int, ...]) -> None:
        """Raise unless the gradient has ``shape`` (it was zeroed for this pass's stack)."""
        if self.grad.shape != shape:
            raise ValueError(
                f"gradient contribution of shape {shape} does not match the gradient's "
                f"{self.grad.shape}; call zero_grad(workers=...) for the pass's stack"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(shape={self.data.shape})"


class Module:
    """Base class for layers and models.

    Subclasses implement ``forward`` (storing whatever they need for the
    backward pass on ``self``) and ``backward`` (consuming the stored cache,
    accumulating parameter gradients, and returning the gradient with respect
    to the input).
    """

    #: Most workers the trainer stacks into one pass of this model (see
    #: ``repro.distributed.worker.compute_gradients``).  Measured per model:
    #: stacking pays where NumPy call overhead dominates, not FLOPs.
    worker_group = 1

    def __init__(self) -> None:
        self._parameters: dict[str, Parameter] = {}
        self._modules: dict[str, "Module"] = {}
        self.training = True
        #: Length of the leading worker axis of a stacked pass, ``None`` unstacked.
        self.workers: int | None = None

    # -- registration -------------------------------------------------------

    def register_parameter(self, name: str, param: Parameter) -> Parameter:
        self._parameters[name] = param
        return param

    def register_module(self, name: str, module: "Module") -> "Module":
        self._modules[name] = module
        return module

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    # -- traversal -----------------------------------------------------------

    def named_parameters(self, prefix: str = "") -> dict[str, Parameter]:
        """All parameters of this module and its children, keyed by dotted path."""
        out: dict[str, Parameter] = {}
        for name, param in self._parameters.items():
            out[f"{prefix}{name}"] = param
        for name, module in self._modules.items():
            out.update(module.named_parameters(prefix=f"{prefix}{name}."))
        return out

    def parameters(self) -> list[Parameter]:
        return list(self.named_parameters().values())

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return sum(p.size for p in self.parameters())

    def zero_grad(self, workers: int | None = None) -> None:
        """Zero every gradient and set up the next pass.

        ``workers=W`` prepares a stacked pass over W workers' batches (inputs
        ``(W, batch, ...)``, gradients ``(W, *shape)``); ``None`` is the
        ordinary unstacked pass.
        """
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._set_workers(workers)
        for param in self.parameters():
            param.zero_grad(workers)

    def _set_workers(self, workers: int | None) -> None:
        self.__dict__["workers"] = workers  # plain attribute: skip the registration checks
        for module in self._modules.values():
            module._set_workers(workers)

    def worker_axes(self, x: np.ndarray) -> tuple[int, ...]:
        """``(W,)`` in a stacked pass, after checking ``x``'s worker axis; ``()`` unstacked."""
        if self.workers is None:
            return ()
        if np.ndim(x) == 0 or np.shape(x)[0] != self.workers:
            raise ValueError(
                f"{type(self).__name__} is set up for a stack of {self.workers} workers "
                f"but got an input of shape {np.shape(x)}"
            )
        return (self.workers,)

    # -- state round-trips (used by tests and checkpoint-free workers) -------

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: param.data.copy() for name, param in self.named_parameters().items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        params = self.named_parameters()
        missing = set(params) - set(state)
        if missing:
            raise KeyError(f"state dict is missing parameters: {sorted(missing)}")
        for name, param in params.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: expected {param.data.shape}, got {value.shape}"
                )
            param.data[...] = value

    def gradient_dict(self) -> dict[str, np.ndarray]:
        """Current accumulated gradients keyed like ``named_parameters``."""
        return {name: param.grad.copy() for name, param in self.named_parameters().items()}

    # -- mode ----------------------------------------------------------------

    def train(self) -> "Module":
        self.training = True
        for module in self._modules.values():
            module.train()
        return self

    def eval(self) -> "Module":
        self.training = False
        for module in self._modules.values():
            module.eval()
        return self

    # -- computation ----------------------------------------------------------

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
