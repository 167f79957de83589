"""Unified ``BENCH_*.json`` artifact schema.

Every benchmark under ``benchmarks/`` persists its headline numbers as a JSON
artifact at the repository root.  Historically each module invented its own
top-level shape, which made the artifacts easy to write and impossible to
consume uniformly — a dashboard had to know six ad-hoc layouts.

This module defines the one envelope they all share:

``schema`` / ``schema_version``
    Identifies the envelope (``"sidco.bench-artifact"``) and its revision, so
    consumers can dispatch without guessing.
``benchmark``
    The emitting benchmark's name (``"overlap_speedup"``, ``"registry_throughput"``, ...).
``params``
    The knobs the benchmark ran with (dimension, ratios, topology, ...).
``metrics``
    Flat headline numbers — the values a ratchet or dashboard reads first.
``records``
    Uniform per-point rows (one dict per measured configuration) in the
    sweep-result idiom: ``{"workload": ..., "config": {...}, "metrics": {...}}``
    or any list of flat dicts.

These six keys are the whole artifact: consumers read ``metrics`` and
``records``, never ad-hoc top-level keys.
"""

from __future__ import annotations

import json
from pathlib import Path

#: Envelope identifier shared by every repo benchmark artifact.
BENCH_SCHEMA = "sidco.bench-artifact"
#: Current envelope revision.  Bump when envelope keys change meaning.
BENCH_SCHEMA_VERSION = 1

#: The envelope's keys: every artifact has exactly these top-level keys.
ENVELOPE_KEYS = ("schema", "schema_version", "benchmark", "params", "metrics", "records")


def bench_artifact(
    benchmark: str,
    *,
    params: dict | None = None,
    metrics: dict | None = None,
    records: list[dict] | None = None,
) -> dict:
    """Assemble one schema-conformant artifact payload."""
    return validate_bench_artifact(
        {
            "schema": BENCH_SCHEMA,
            "schema_version": BENCH_SCHEMA_VERSION,
            "benchmark": benchmark,
            "params": dict(params or {}),
            "metrics": dict(metrics or {}),
            "records": list(records or []),
        }
    )


def validate_bench_artifact(payload: dict) -> dict:
    """Check the envelope invariants; return the payload for chaining."""
    if not isinstance(payload, dict):
        raise TypeError(f"artifact payload must be a dict, got {type(payload)!r}")
    if payload.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"unknown artifact schema {payload.get('schema')!r}; expected {BENCH_SCHEMA!r}"
        )
    version = payload.get("schema_version")
    if not isinstance(version, int) or version < 1:
        raise ValueError(f"schema_version must be a positive integer, got {version!r}")
    benchmark = payload.get("benchmark")
    if not isinstance(benchmark, str) or not benchmark:
        raise ValueError(f"benchmark must be a non-empty string, got {benchmark!r}")
    for key in ("params", "metrics"):
        if not isinstance(payload.get(key), dict):
            raise ValueError(f"{key} must be a dict, got {type(payload.get(key))!r}")
    records = payload.get("records")
    if not isinstance(records, list) or any(not isinstance(r, dict) for r in records):
        raise ValueError("records must be a list of dicts")
    return payload


def write_bench_artifact(
    path: str | Path,
    benchmark: str,
    *,
    params: dict | None = None,
    metrics: dict | None = None,
    records: list[dict] | None = None,
) -> dict:
    """Write one artifact to ``path`` and return the JSON round-trip.

    Returning the re-parsed payload (not the in-memory dict) lets emitters
    assert their ratchet bars against exactly what landed on disk.
    """
    payload = bench_artifact(benchmark, params=params, metrics=metrics, records=records)
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return load_bench_artifact(path)


def load_bench_artifact(path: str | Path) -> dict:
    """Read and validate one artifact from ``path``."""
    return validate_bench_artifact(json.loads(Path(path).read_text()))
