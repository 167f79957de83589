"""Gradient quantizers (related-work baselines: sign-SGD and TernGrad style).

The paper's Section 1.1 discusses quantization as the other family of gradient
compressors: volume reduction is capped at 32x (one bit per 32-bit float) and
error compensation is required for convergence at low bit widths.  These two
quantizers are provided as extension baselines so the library covers both
compression families; they are not part of the sparsifier registry because
their output is dense (every coordinate is transmitted, just with fewer bits).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import OpRecord

FLOAT_BITS = 32


@dataclass
class QuantizationResult:
    """Output of a quantizer: the dequantized gradient plus volume accounting."""

    dequantized: np.ndarray
    bits_per_element: float
    ops: list[OpRecord]
    metadata: dict

    @property
    def volume_reduction(self) -> float:
        """Dense fp32 bytes divided by quantized payload bytes."""
        return FLOAT_BITS / self.bits_per_element

    def payload_bytes(self) -> float:
        return self.dequantized.size * self.bits_per_element / 8.0


class SignSGD:
    """One-bit quantization with an L1 scale (EF-SignSGD style).

    Transmits ``sign(g)`` plus one scalar ``mean(|g|)`` per call; the
    dequantized gradient is ``mean(|g|) * sign(g)``, which is the form whose
    convergence error feedback repairs (Karimireddy et al., 2019).
    """

    name = "signsgd"

    def quantize(self, gradient: np.ndarray) -> QuantizationResult:
        grad = np.asarray(gradient, dtype=np.float64).ravel()
        if grad.size == 0:
            raise ValueError("cannot quantize an empty gradient")
        scale = float(np.mean(np.abs(grad)))
        signs = np.sign(grad)
        # Zero entries are transmitted as +1 by convention (they carry no scale anyway).
        signs[signs == 0.0] = 1.0
        ops = [OpRecord("elementwise", grad.size), OpRecord("reduce", grad.size)]
        return QuantizationResult(
            dequantized=scale * signs,
            bits_per_element=1.0 + FLOAT_BITS / grad.size,
            ops=ops,
            metadata={"scale": scale},
        )


class TernGrad:
    """Ternary quantization: each coordinate becomes {-s, 0, +s} stochastically.

    ``s`` is the max magnitude; each element keeps its sign with probability
    ``|g_i| / s`` and is zeroed otherwise, which makes the quantizer unbiased
    (``E[Q(g)] = g``).
    """

    name = "terngrad"

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._rng = np.random.default_rng(seed)

    def reset(self) -> None:
        self._rng = np.random.default_rng(self._seed)

    def quantize(self, gradient: np.ndarray) -> QuantizationResult:
        grad = np.asarray(gradient, dtype=np.float64).ravel()
        if grad.size == 0:
            raise ValueError("cannot quantize an empty gradient")
        scale = float(np.max(np.abs(grad)))
        if scale == 0.0:
            ternary = np.zeros_like(grad)
        else:
            keep_prob = np.abs(grad) / scale
            keep = self._rng.uniform(size=grad.size) < keep_prob
            ternary = np.where(keep, np.sign(grad) * scale, 0.0)
        ops = [
            OpRecord("elementwise", grad.size),
            OpRecord("reduce", grad.size),
            OpRecord("random_sample", grad.size, int(np.count_nonzero(ternary))),
        ]
        return QuantizationResult(
            dequantized=ternary,
            bits_per_element=np.log2(3.0) + FLOAT_BITS / grad.size,
            ops=ops,
            metadata={"scale": scale, "nonzero": int(np.count_nonzero(ternary))},
        )
