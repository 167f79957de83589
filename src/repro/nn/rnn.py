"""Recurrent layers: embedding lookup and a multi-layer LSTM with BPTT.

The paper's two RNN benchmarks (LSTM language model on PTB, DeepSpeech-style
LSTM on AN4) are the workloads where compression matters most (94% and 80%
communication overhead in Table 1).  The proxies built on this layer keep the
same architecture family — embedding + stacked LSTM + projection — at reduced
width so the simulator can train them quickly while still producing
non-trivially distributed gradients.
"""

from __future__ import annotations

import numpy as np

from . import init
from .module import Module, Parameter


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


class Embedding(Module):
    """Token-id to dense-vector lookup table."""

    def __init__(self, num_embeddings: int, embedding_dim: int, *, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(rng.normal(0.0, 0.1, size=(num_embeddings, embedding_dim)))
        self._input_ids: np.ndarray | None = None

    def forward(self, token_ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(token_ids, dtype=np.int64)
        if ids.min() < 0 or ids.max() >= self.num_embeddings:
            raise ValueError("token id out of range for embedding table")
        self.worker_axes(ids)
        self._input_ids = ids
        return self.weight.data[ids]

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_ids is None:
            raise RuntimeError("backward called before forward")
        axes = self.worker_axes(self._input_ids)
        self.weight.check_grad((*axes, *self.weight.shape))
        ids = self._input_ids.reshape(*axes, -1)
        if axes:
            # Worker w's rows of the (W * vocab, dim) view: its scatter-adds
            # land in its own slice, in its own order.
            ids = ids + self.num_embeddings * np.arange(axes[0])[:, None]
        flat_grad = grad_output.reshape(-1, self.embedding_dim)
        # The gradient is C-ordered (Parameter allocates it), so this reshape is a view.
        np.add.at(self.weight.grad.reshape(-1, self.embedding_dim), ids.reshape(-1), flat_grad)
        # Token ids are not differentiable; return zeros with the id shape for API symmetry.
        return np.zeros(self._input_ids.shape, dtype=np.float64)


class LSTM(Module):
    """Stacked LSTM over a ``(batch, time, features)`` input.

    A pass over several workers' batches takes ``(workers, batch, time, features)``.

    Forward returns the top layer's hidden states for every timestep.
    Backward performs truncated BPTT over the full forward window (the
    simulator always uses windows short enough for exact BPTT).
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        num_layers: int = 1,
        *,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        rng = rng or np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        for layer in range(num_layers):
            in_size = input_size if layer == 0 else hidden_size
            w_ih = Parameter(init.xavier_uniform((4 * hidden_size, in_size), in_size, hidden_size, rng))
            w_hh = Parameter(init.orthogonal((4 * hidden_size, hidden_size), rng))
            bias = Parameter(init.zeros((4 * hidden_size,)))
            self.register_parameter(f"w_ih_l{layer}", w_ih)
            self.register_parameter(f"w_hh_l{layer}", w_hh)
            self.register_parameter(f"bias_l{layer}", bias)
        self._caches: list[list[dict[str, np.ndarray]]] | None = None
        self._layer_inputs: list[np.ndarray] | None = None

    def _params(self, layer: int) -> tuple[Parameter, Parameter, Parameter]:
        return (
            self._parameters[f"w_ih_l{layer}"],
            self._parameters[f"w_hh_l{layer}"],
            self._parameters[f"bias_l{layer}"],
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        axes = self.worker_axes(x)
        if x.ndim != 3 + len(axes):
            layout = "(workers, batch, time, features)" if axes else "(batch, time, features)"
            raise ValueError(f"LSTM expects {layout}, got shape {x.shape}")
        *batch, time, _ = x.shape
        hidden = self.hidden_size
        self._caches = []
        self._layer_inputs = []

        layer_input = x
        for layer in range(self.num_layers):
            w_ih, w_hh, bias = self._params(layer)
            h = np.zeros((*batch, hidden))
            c = np.zeros((*batch, hidden))
            outputs = np.empty((*batch, time, hidden))
            caches: list[dict[str, np.ndarray]] = []
            self._layer_inputs.append(layer_input)
            for t in range(time):
                x_t = layer_input[..., t, :]
                z = x_t @ w_ih.data.T + h @ w_hh.data.T + bias.data
                i_g = _sigmoid(z[..., :hidden])
                f_g = _sigmoid(z[..., hidden : 2 * hidden])
                g_g = np.tanh(z[..., 2 * hidden : 3 * hidden])
                o_g = _sigmoid(z[..., 3 * hidden :])
                c_new = f_g * c + i_g * g_g
                tanh_c = np.tanh(c_new)
                h_new = o_g * tanh_c
                caches.append(
                    {
                        "x": x_t,
                        "h_prev": h,
                        "c_prev": c,
                        "i": i_g,
                        "f": f_g,
                        "g": g_g,
                        "o": o_g,
                        "c": c_new,
                        "tanh_c": tanh_c,
                    }
                )
                h, c = h_new, c_new
                outputs[..., t, :] = h
            self._caches.append(caches)
            layer_input = outputs
        return layer_input

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._caches is None or self._layer_inputs is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=np.float64)
        hidden = self.hidden_size
        grad_layer_output = grad_output

        for layer in reversed(range(self.num_layers)):
            w_ih, w_hh, bias = self._params(layer)
            caches = self._caches[layer]
            layer_input = self._layer_inputs[layer]
            *batch, time, in_size = layer_input.shape

            grad_input = np.zeros((*batch, time, in_size))
            grad_h_next = np.zeros((*batch, hidden))
            grad_c_next = np.zeros((*batch, hidden))
            for t in reversed(range(time)):
                cache = caches[t]
                grad_h = grad_layer_output[..., t, :] + grad_h_next
                grad_o = grad_h * cache["tanh_c"]
                grad_c = grad_h * cache["o"] * (1.0 - cache["tanh_c"] ** 2) + grad_c_next
                grad_i = grad_c * cache["g"]
                grad_g = grad_c * cache["i"]
                grad_f = grad_c * cache["c_prev"]
                grad_c_next = grad_c * cache["f"]

                dz = np.concatenate(
                    [
                        grad_i * cache["i"] * (1.0 - cache["i"]),
                        grad_f * cache["f"] * (1.0 - cache["f"]),
                        grad_g * (1.0 - cache["g"] ** 2),
                        grad_o * cache["o"] * (1.0 - cache["o"]),
                    ],
                    axis=-1,
                )
                # Per-timestep accumulation, one GEMM per worker: summing the
                # timesteps inside one larger GEMM would change the bits.
                dz_t = dz.swapaxes(-1, -2)
                w_ih.accumulate(dz_t @ cache["x"])
                w_hh.accumulate(dz_t @ cache["h_prev"])
                bias.accumulate(dz.sum(axis=-2))
                grad_input[..., t, :] = dz @ w_ih.data
                grad_h_next = dz @ w_hh.data
            grad_layer_output = grad_input
        # BPTT consumes the window: release the per-step caches now (a stacked
        # pass holds every worker's) rather than at the next forward.
        self._caches = self._layer_inputs = None
        return grad_layer_output
