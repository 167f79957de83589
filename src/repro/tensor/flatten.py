"""Flattening utilities: pack per-layer gradients into one vector and back.

Distributed training frameworks hand compressors either per-tensor gradients
or a single flattened buffer.  SIDCo (like Top-k/DGC in the paper's Horovod
integration) operates on the flattened view, so this module provides a
``FlatSpec`` that remembers each parameter's name, shape and offset and can
round-trip between a dict of arrays and one contiguous float64 vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TensorSlot:
    """Location of one named tensor inside a flattened buffer."""

    name: str
    shape: tuple[int, ...]
    offset: int
    size: int


@dataclass(frozen=True)
class FlatSpec:
    """Layout of a flattened parameter/gradient buffer."""

    slots: tuple[TensorSlot, ...]
    total_size: int

    @classmethod
    def from_named_shapes(cls, named_shapes: dict[str, tuple[int, ...]]) -> "FlatSpec":
        slots: list[TensorSlot] = []
        offset = 0
        for name, shape in named_shapes.items():
            size = int(np.prod(shape, dtype=np.int64)) if shape else 1
            slots.append(TensorSlot(name=name, shape=tuple(shape), offset=offset, size=size))
            offset += size
        return cls(slots=tuple(slots), total_size=offset)


def flatten(
    named_arrays: dict[str, np.ndarray],
    spec: FlatSpec | None = None,
    *,
    workers: int | None = None,
) -> tuple[np.ndarray, FlatSpec]:
    """Concatenate named arrays into a single 1-D float64 vector.

    With ``workers=W`` every array carries a leading worker axis,
    ``(W, *shape)``, and the result is a ``(W, total_size)`` matrix with one
    flattened row per worker.
    """
    rows = () if workers is None else (workers,)
    if spec is None:
        spec = FlatSpec.from_named_shapes(
            {name: np.shape(arr)[len(rows) :] for name, arr in named_arrays.items()}
        )
    flat = np.empty((*rows, spec.total_size), dtype=np.float64)
    for slot in spec.slots:
        arr = np.asarray(named_arrays[slot.name], dtype=np.float64)
        expected = slot.size * (workers or 1)
        if arr.size != expected:
            raise ValueError(
                f"tensor {slot.name!r} has {arr.size} elements but the spec expects {expected}"
            )
        flat[..., slot.offset : slot.offset + slot.size] = arr.reshape(*rows, slot.size)
    return flat, spec


def unflatten(flat: np.ndarray, spec: FlatSpec) -> dict[str, np.ndarray]:
    """Split a flat vector back into named arrays with their original shapes."""
    flat = np.asarray(flat, dtype=np.float64).ravel()
    if flat.size != spec.total_size:
        raise ValueError(f"flat vector has {flat.size} elements but the spec expects {spec.total_size}")
    out: dict[str, np.ndarray] = {}
    for slot in spec.slots:
        out[slot.name] = flat[slot.offset : slot.offset + slot.size].reshape(slot.shape).copy()
    return out
