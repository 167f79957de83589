"""Regression tests for the unified ``BENCH_*`` artifact schema.

The six benchmark emitters all serialize through one envelope
(``sidco.bench-artifact``); these tests pin the envelope contract —
schema/version keys, params/metrics/records shapes, no keys outside the
envelope — and the disk round-trip the emitters assert against.
"""

import json

import pytest

from repro.harness import (
    BENCH_SCHEMA,
    BENCH_SCHEMA_VERSION,
    bench_artifact,
    load_bench_artifact,
    validate_bench_artifact,
    write_bench_artifact,
)
from repro.harness.artifacts import ENVELOPE_KEYS


class TestEnvelope:
    def test_minimal_artifact_is_schema_conformant(self):
        payload = bench_artifact("demo")
        assert payload["schema"] == BENCH_SCHEMA == "sidco.bench-artifact"
        assert payload["schema_version"] == BENCH_SCHEMA_VERSION == 1
        assert payload["benchmark"] == "demo"
        assert payload["params"] == {} and payload["metrics"] == {} and payload["records"] == []
        assert tuple(payload) == ENVELOPE_KEYS

    def test_params_metrics_records_carried_verbatim(self):
        payload = bench_artifact(
            "demo",
            params={"dimension": 10},
            metrics={"speedup": 2.5},
            records=[{"workload": "w", "config": {"ratio": 0.1}, "metrics": {"t": 1.0}}],
        )
        assert payload["params"] == {"dimension": 10}
        assert payload["metrics"] == {"speedup": 2.5}
        assert payload["records"][0]["config"] == {"ratio": 0.1}


class TestValidation:
    def test_rejects_wrong_schema_id(self):
        payload = bench_artifact("demo")
        payload["schema"] = "something-else"
        with pytest.raises(ValueError, match="unknown artifact schema"):
            validate_bench_artifact(payload)

    def test_rejects_bad_version(self):
        payload = bench_artifact("demo")
        payload["schema_version"] = 0
        with pytest.raises(ValueError, match="schema_version"):
            validate_bench_artifact(payload)

    def test_rejects_empty_benchmark(self):
        payload = bench_artifact("demo")
        payload["benchmark"] = ""
        with pytest.raises(ValueError, match="benchmark"):
            validate_bench_artifact(payload)

    def test_rejects_malformed_sections(self):
        for key, bad in (("params", []), ("metrics", 3), ("records", {"a": 1})):
            payload = bench_artifact("demo")
            payload[key] = bad
            with pytest.raises(ValueError):
                validate_bench_artifact(payload)
        payload = bench_artifact("demo")
        payload["records"] = [{"ok": 1}, "not-a-dict"]
        with pytest.raises(ValueError, match="records"):
            validate_bench_artifact(payload)

    def test_rejects_non_dict_payload(self):
        with pytest.raises(TypeError):
            validate_bench_artifact([1, 2, 3])


class TestDiskRoundTrip:
    def test_write_returns_the_disk_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_demo.json"
        written = write_bench_artifact(
            path,
            "demo",
            params={"dimension": 10},
            metrics={"speedup": 2.5},
            records=[{"workload": "w", "config": {}, "metrics": {"t": 0.5}}],
        )
        on_disk = json.loads(path.read_text())
        assert written == on_disk
        assert load_bench_artifact(path) == on_disk

    def test_round_trip_preserves_float_bits(self, tmp_path):
        # Ratchet bars compare floats exactly against what landed on disk.
        value = 0.1 + 0.2  # 0.30000000000000004
        path = tmp_path / "BENCH_float.json"
        written = write_bench_artifact(path, "demo", metrics={"v": value})
        assert written["metrics"]["v"] == value

    def test_load_rejects_pre_schema_artifact(self, tmp_path):
        path = tmp_path / "BENCH_old.json"
        path.write_text(json.dumps({"benchmark": "old", "speedup": 2.0}))
        with pytest.raises(ValueError, match="unknown artifact schema"):
            load_bench_artifact(path)


def test_repo_root_artifacts_conform_to_schema():
    """Every committed BENCH_*.json must round-trip through the validator."""
    from pathlib import Path

    root = Path(__file__).resolve().parents[2]
    artifacts = sorted(root.glob("BENCH_*.json"))
    assert artifacts, "expected committed BENCH_*.json artifacts at the repo root"
    for path in artifacts:
        payload = load_bench_artifact(path)
        assert payload["benchmark"]
        extra = sorted(set(payload) - set(ENVELOPE_KEYS))
        assert not extra, f"{path.name} has keys outside the envelope: {extra}"
