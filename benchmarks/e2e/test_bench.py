"""Tests of the end-to-end benchmark itself, at smoke op counts.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_bench.py -q

Outside the tier-1 ``testpaths``: the all-workload smoke run takes about half
a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402

BENCHMARK = json.loads((run.REPO / "BENCHMARK.json").read_text())


class FakeClock:
    """Integer nanoseconds that only move when a fake layer does work."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def work(self, ns: int) -> None:
        self.now += ns


@pytest.fixture
def fake_layers(monkeypatch):
    """A module with two nested callables, importable as ``fake_layers``."""
    import types

    clock = FakeClock()
    module = types.ModuleType("fake_layers")

    def inner():
        clock.work(3)
        return "inner"

    def outer():
        clock.work(10)
        module.inner()
        clock.work(5)
        module.inner()
        return "outer"

    module.inner, module.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layers", module)
    return module, clock


def test_self_time_subtracts_nested_child_spans(fake_layers):
    module, clock = fake_layers
    tracer = tracing.Tracer(
        {"outer": ("fake_layers:outer",), "inner": ("fake_layers:inner",)}, clock=clock
    )

    def op():
        clock.work(1)
        result = module.outer()
        clock.work(2)
        return result

    with tracer.installed():
        assert tracer.run_op(op) == "outer"
        assert tracer.run_op(op) == "outer"
    assert tracer.stats == {tracing.ROOT: [2, 6], "outer": [2, 30], "inner": [4, 12]}
    # Self times partition the root spans' wall time.
    assert sum(self_ns for _, self_ns in tracer.stats.values()) == 2 * (1 + 10 + 3 + 5 + 3 + 2)

    events = tracer.chrome_trace("fake")["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    assert [e["name"] for e in complete][:4] == [tracing.ROOT, "outer", "inner", "inner"]
    assert complete[1]["dur"] == 21 / 1000.0


def test_patches_are_restored_even_when_an_op_raises(fake_layers):
    module, clock = fake_layers
    original = module.outer
    tracer = tracing.Tracer({"outer": ("fake_layers:outer",)}, clock=clock)
    with pytest.raises(ZeroDivisionError):
        with tracer.installed():
            assert module.outer is not original
            tracer.run_op(lambda: 1 / 0)
    assert module.outer is original


def test_benchmark_json_declares_exactly_what_run_prints():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run_workloads())
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.per_layer_units()
    assert len(BENCHMARK["per_layer"]) <= 128
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    assert BENCHMARK["run_seconds"] == run.DEFAULT_SECONDS


def run_workloads():
    from workloads import build_workloads

    return build_workloads()


def test_traced_run_restores_every_patched_attribute(tmp_path):
    sites = [site for sites in tracing.LAYERS.values() for site in sites]
    before = {site: tracing.resolve(site)[2] for site in sites}
    record = run.measure("tune-warm", 0, 0.0, trace=True, setups=1, out_dir=tmp_path)
    assert all(tracing.resolve(site)[2] is before[site] for site in sites)

    assert record["failed"] == 0 and record["traced_samples"] >= 2
    assert set(record["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert record["metrics"]["sweep.cache_hit_ratio"]["value"] == 1.0
    trace = json.loads((tmp_path / "trace-tune-warm.json").read_text())
    phases = {event["ph"] for event in trace["traceEvents"]}
    assert {"X", "C", "M"} <= phases


def test_perturbed_pin_fails_every_op(tmp_path, monkeypatch):
    pins = run.load_pins()
    pins["tune-warm"]["best_iteration_seconds"] *= 1.0 + 1e-6
    perturbed = tmp_path / "pins.json"
    perturbed.write_text(json.dumps(pins))
    monkeypatch.setattr(run, "PINS", perturbed)
    record = run.measure("tune-warm", 0, 0.0, trace=False, setups=1, out_dir=tmp_path)
    assert record["attempted"] >= 1
    assert record["failed"] == record["attempted"]
    assert not record["correct"]


def test_pin_comparison_is_relative_to_1e_9():
    assert run.matches({"a": 1.0, "b": [1, "x"]}, {"a": 1.0 + 1e-12, "b": [1, "x"]})
    assert not run.matches({"a": 1.0}, {"a": 1.0 + 1e-6})
    assert not run.matches({"a": 1}, {"a": 1, "b": 2})
    assert not run.matches(3, True)


def test_every_workload_emits_every_metric_without_errors(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=600, check=False,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == len(BENCHMARK["workloads"])
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
        assert all(v["value"] > 0 for v in result["metrics"].values())
    records = [json.loads(p.read_text()) for p in tmp_path.glob("*.e2e.*.json")]
    assert sorted(r["workload"] for r in records) == sorted(run_workloads())
    assert all(r["error_rate"] == 0 and r["src_lines"] > 0 for r in records)


def test_without_the_program_the_benchmark_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "tune-warm", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def result(workload, **values):
    return {
        "workload": workload, "trace": False, "error_rate": values.pop("error_rate", 0.0),
        "metrics": {name: {"value": value} for name, value in values.items()},
    }


def test_compare_flags_regressions_and_unresolved_spreads():
    metrics = [
        {"name": "ops_per_s", "better": "higher", "bound": 0.1},
        {"name": "op_p50_s", "better": "lower", "bound": 0.1},
    ]
    base = {"w": [result("w", ops_per_s=v, op_p50_s=1.0) for v in (100, 101, 99)]}
    slower = {"w": [result("w", ops_per_s=v, op_p50_s=1.2) for v in (100, 100, 100)]}
    noisy = {"w": [result("w", ops_per_s=v, op_p50_s=1.0) for v in (70, 100, 130)]}
    failing = {"w": [result("w", ops_per_s=100, op_p50_s=1.0, error_rate=0.1)]}
    verdicts = {name: status for _, name, *_, status in compare.compare(base, slower, metrics)}
    assert verdicts == {"ops_per_s": "ok", "op_p50_s": "REGRESSION", "error_rate": "ok"}
    verdicts = {name: status for _, name, *_, status in compare.compare(base, noisy, metrics)}
    assert verdicts["ops_per_s"] == "unresolved"
    verdicts = {name: status for _, name, *_, status in compare.compare(base, failing, metrics)}
    assert verdicts["error_rate"] == "REGRESSION"
