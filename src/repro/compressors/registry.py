"""Compressor registry: build any compressor (SIDCo or baseline) by name.

The experiment harness, examples, and benchmarks refer to compressors by the
short names used in the paper's figures (``topk``, ``dgc``, ``redsync``,
``gaussiank``, ``sidco-e``, ``sidco-gp``, ``sidco-p``, ``none`` ...); this
module maps those names to constructors.
"""

from __future__ import annotations

from typing import Callable

from .base import Compressor
from .dgc import DGC
from .gaussiank import GaussianKSGD
from .randomk import RandomK
from .redsync import RedSync
from .threshold_fixed import AdaptiveHardThreshold
from .topk import NoCompression, TopK


def _sidco_factory(variant: str) -> Callable[..., Compressor]:
    def factory(**kwargs) -> Compressor:
        from ..core.sidco import SIDCo

        return SIDCo.from_variant(variant, **kwargs)

    return factory


_REGISTRY: dict[str, Callable[..., Compressor]] = {
    "none": NoCompression,
    "topk": TopK,
    "dgc": DGC,
    "redsync": RedSync,
    "gaussiank": GaussianKSGD,
    "randomk": RandomK,
    "hard_threshold": AdaptiveHardThreshold,
    "sidco-e": _sidco_factory("sidco-e"),
    "sidco-gp": _sidco_factory("sidco-gp"),
    "sidco-p": _sidco_factory("sidco-p"),
}

#: The compressor line-up of the paper's main figures, in plotting order.
PAPER_COMPRESSORS: tuple[str, ...] = ("topk", "dgc", "redsync", "gaussiank", "sidco-e")

#: All SIDCo variants (Appendix F / Figure 18 line-up).
SIDCO_VARIANTS: tuple[str, ...] = ("sidco-e", "sidco-gp", "sidco-p")


def available_compressors() -> list[str]:
    """Names accepted by :func:`create_compressor`."""
    return sorted(_REGISTRY)


def create_compressor(name: str, **kwargs) -> Compressor:
    """Instantiate a compressor by its registry name."""
    key = name.lower()
    if key not in _REGISTRY:
        # Like get_network/get_topology: the error names every registered
        # compressor, with the paper's figure line-up called out as the
        # common subset.
        raise ValueError(
            f"unknown compressor {name!r}; known: {available_compressors()} "
            f"(paper line-up: {list(PAPER_COMPRESSORS)})"
        )
    return _REGISTRY[key](**kwargs)
