"""End-to-end benchmark of the SIDCo reproduction: five closed-loop workloads.

Run every workload, each in a fresh subprocess, one after another::

    python3 benchmarks/e2e/run.py [--seed S] [--seconds N] [--trace 0|1]

or one workload (the form BENCHMARK.json's command is run in)::

    python3 benchmarks/e2e/run.py --workload train-lstm --seed 0 --seconds 15 --trace 0

A run sets the workload up ``SETUPS`` times (input generation plus warm-up
ops) and reports the median, then runs timed ops back to back for
``--seconds`` seconds with one client, checking every op's output.  It prints
each metric by name and unit, writes a results file under ``--out``, and ends
with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (:data:`END_TO_END`).
With ``--trace 1`` every other pair of ops runs with spans patched around each
layer (see ``tracer.py``); the metrics are the per-layer ones and the untraced
pairs give the tracing overhead.  The traced run also writes
``trace-<workload>.json`` in Chrome trace-event format.

The process exits nonzero when any op fails, and with code 2 when the
checkout has no ``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer

#: Start of set-up: the process has started and nothing of ``repro`` is loaded.
_START = time.perf_counter()

# One client means one thread of numerical work too; set before NumPy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
PINS = HERE / "expected-seed0.json"
DEFAULT_OUT = HERE / "results"

#: Equals ``run_seconds`` in BENCHMARK.json.
DEFAULT_SECONDS = 15
#: Set-ups per run; ``setup_s`` reports their median.
SETUPS = 3
#: Relative tolerance of the seed-0 pins.
PIN_RTOL = 1e-9

#: End-to-end metric -> unit (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "items_per_s": "item/s",
    "op_p10_s": "s",
    "peak_rss_mb": "MiB",
}

#: Consecutive blocks of timed ops; the fastest block's rate is the throughput.
RATE_BLOCKS = 9

#: Per-layer suffix -> unit; every layer in :data:`tracer.LAYERS` reports each.
LAYER_METRICS = {"calls_per_op": "call/op", "self_ms_per_op": "ms/op", "share": "fraction"}

#: Counters of the traced run -> unit.
TRACE_COUNTERS = {
    "sweep.cache_hit_ratio": "fraction",
    "compressors.k_ratio_error": "fraction",
    "pipeline.buckets_per_call": "bucket/call",
    "trace.overhead": "fraction",
    "trace.root_self_share": "fraction",
    "trace.coverage": "fraction",
}


def per_layer_units() -> dict[str, str]:
    """Every ``--trace 1`` metric -> unit, in output order."""
    units = {
        f"{layer}.{suffix}": unit
        for layer in tracer.LAYERS
        for suffix, unit in LAYER_METRICS.items()
    }
    units.update(TRACE_COUNTERS)
    return units


def src_lines() -> int:
    """Line count of ``src/repro/**/*.py``, recorded beside the numbers."""
    return sum(
        len(path.read_text().splitlines()) for path in sorted((SRC / "repro").rglob("*.py"))
    )


def matches(expected, actual, rtol: float = PIN_RTOL) -> bool:
    """Pin comparison: numbers within ``rtol``, dicts key by key, the rest exactly."""
    if isinstance(expected, dict):
        return (
            isinstance(actual, dict)
            and expected.keys() == actual.keys()
            and all(matches(expected[key], actual[key], rtol) for key in expected)
        )
    numbers = (int, float)
    if isinstance(expected, numbers) and not isinstance(expected, bool):
        return (
            isinstance(actual, numbers)
            and not isinstance(actual, bool)
            and math.isclose(expected, actual, rel_tol=rtol, abs_tol=0.0)
        )
    return expected == actual


def load_pins() -> dict:
    return json.loads(PINS.read_text())


class Counters:
    """Traced-run counters fed by span observers and per-op cache deltas."""

    def __init__(self) -> None:
        self.compress_calls = 0
        self.k_ratio_error = 0.0
        self.buckets = 0
        self.cache_hits = 0
        self.cache_misses = 0

    def observe_compress(self, result) -> None:
        self.compress_calls += 1
        self.k_ratio_error += abs(result.estimation_quality - 1.0)
        self.buckets += int(result.metadata.get("num_buckets", 1))


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def block_rate(work: list[float], latencies: list[float], blocks: int = RATE_BLOCKS) -> float:
    """Work over wall time in the fastest of ``blocks`` consecutive blocks of ops.

    Every op repeats the same work, so on a shared machine the spread of op
    times is other tenants', not the program's; the fastest block is the rate
    the program sustains, and it still pays every per-block cost (a garbage
    collection, a slow op every few calls) that a single op's time hides.
    """
    count = min(blocks, len(latencies))
    edges = [round(i * len(latencies) / count) for i in range(count + 1)]
    return max(
        sum(work[start:stop]) / sum(latencies[start:stop])
        for start, stop in zip(edges, edges[1:])
    )


def latency_summary(latencies: list[float]) -> dict[str, float]:
    """Ungated latencies: the median, and the highest percentile with ten samples beyond it."""
    summary = {"op_p50_s": statistics.median(latencies)}
    for p, needed in ((99, 1000), (90, 100)):
        if len(latencies) >= needed:
            summary[f"op_p{p}_s"] = percentile(latencies, p)
            break
    return summary


def run_ops(workload, seconds: float, *, pin_ok: bool, spans=None, counters=None) -> dict:
    """Timed closed loop: ops back to back until ``seconds`` have passed.

    In a traced run ops alternate in pairs, untraced then traced, so both
    halves see the same mix of inputs and drift; it runs at least two pairs.
    Only the op call is timed; checks run between ops.
    """
    latencies = {False: [], True: []}
    items = {False: [], True: []}
    attempted = failed = 0
    cache_totals = [0, 0]
    deadline = time.perf_counter() + seconds
    while True:
        traced = spans is not None and (attempted // 2) % 2 == 1
        attempted += 1
        try:
            if traced:
                with spans.installed():
                    start = time.perf_counter()
                    output = spans.run_op(workload.op)
                    elapsed = time.perf_counter() - start
            else:
                start = time.perf_counter()
                output = workload.op()
                elapsed = time.perf_counter() - start
            ok = workload.check(output) and pin_ok
        except Exception:  # an op that raises is a failed op; keep measuring
            traceback.print_exc()
            failed += 1
        else:
            failed += not ok
            latencies[traced].append(elapsed)
            items[traced].append(workload.items(output))
            counts = workload.cache_counts(output)
            if counts is not None:
                cache_totals[0] += counts[0]
                cache_totals[1] += counts[1]
                if traced:
                    counters.cache_hits += counts[0]
                    counters.cache_misses += counts[1]
                    spans.counter("SweepCache", hits=cache_totals[0], misses=cache_totals[1])
        done = time.perf_counter() >= deadline
        if done and (spans is None or attempted >= 4):
            break
    return {
        "attempted": attempted,
        "failed": failed,
        "latencies": latencies[False],
        "traced_latencies": latencies[True],
        "items": items[False],
        "cache_hits": cache_totals[0],
        "cache_misses": cache_totals[1],
    }


def end_to_end_metrics(setup_s: float, loop: dict) -> dict[str, float]:
    latencies = loop["latencies"]
    return {
        "setup_s": setup_s,
        "ops_per_s": block_rate([1] * len(latencies), latencies),
        "items_per_s": block_rate(loop["items"], latencies),
        # Every op repeats the same work: the low percentile is the program's
        # cost, the rest of the distribution mostly the machine's other load.
        "op_p10_s": percentile(latencies, 10),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(spans: tracer.Tracer, counters: Counters, loop: dict) -> dict[str, float]:
    traced = loop["traced_latencies"]
    ops = len(traced)
    wall_ns = sum(traced) * 1e9
    metrics = {}
    covered = 0
    for layer in spans.layers:
        self_ns = spans.self_ns(layer)
        covered += self_ns
        metrics[f"{layer}.calls_per_op"] = spans.calls(layer) / ops
        metrics[f"{layer}.self_ms_per_op"] = self_ns / 1e6 / ops
        metrics[f"{layer}.share"] = self_ns / wall_ns
    lookups = counters.cache_hits + counters.cache_misses
    calls = counters.compress_calls
    untraced = loop["latencies"]
    metrics.update({
        "sweep.cache_hit_ratio": counters.cache_hits / lookups if lookups else 0.0,
        "compressors.k_ratio_error": counters.k_ratio_error / calls if calls else 0.0,
        "pipeline.buckets_per_call": counters.buckets / calls if calls else 0.0,
        # Medians: a noisy-neighbour burst on either side would swamp the
        # sub-percent cost of the spans on the long ops.
        "trace.overhead": statistics.median(traced) / statistics.median(untraced) - 1.0,
        "trace.root_self_share": spans.self_ns(tracer.ROOT) / wall_ns,
        "trace.coverage": covered / wall_ns,
    })
    return metrics


def measure(name: str, seed: int, seconds: float, *, trace: bool, setups: int,
            out_dir: Path) -> dict:
    """Set up, run and check one workload in this process; returns the result record."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from workloads import build_workloads

    import_s = time.perf_counter() - _START
    if name not in build_workloads():
        raise SystemExit(f"unknown workload {name!r}; known: {list(build_workloads())}")
    setup_times = []
    workload = None
    for _ in range(setups):
        workload = None  # release the previous set-up's inputs first
        start = time.perf_counter()
        workload = build_workloads()[name]
        workload.setup(seed)
        setup_times.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setup_times)

    pin_ok = True
    if seed == 0:
        expected = load_pins().get(name)
        pin_ok = matches(expected, workload.pins())
        if not pin_ok:
            print(f"{name}: seed-0 output {json.dumps(workload.pins(), sort_keys=True)} "
                  f"does not match the pin {json.dumps(expected, sort_keys=True)}",
                  file=sys.stderr)

    spans = counters = None
    if trace:
        counters = Counters()
        spans = tracer.Tracer(observers={"pipeline.compress": counters.observe_compress})
    gc.collect()
    loop = run_ops(workload, seconds, pin_ok=pin_ok, spans=spans, counters=counters)

    out_dir.mkdir(parents=True, exist_ok=True)
    if not loop["latencies"] or (trace and not loop["traced_latencies"]):
        metrics, units = {}, {}  # every op raised: nothing was measured
    elif trace:
        metrics = per_layer_metrics(spans, counters, loop)
        units = per_layer_units()
        spans.write_chrome_trace(out_dir / f"trace-{name}.json", name)
    else:
        metrics = end_to_end_metrics(setup_s, loop)
        units = END_TO_END
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "item": workload.item,
        "correct": loop["failed"] == 0 and bool(metrics),
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "error_rate": loop["failed"] / loop["attempted"],
        "samples": len(loop["latencies"]),
        "latency_s": latency_summary(loop["latencies"]) if loop["latencies"] else {},
        "traced_samples": len(loop["traced_latencies"]),
        "import_s": import_s,
        "setup_runs_s": setup_times,
        "latencies_s": loop["latencies"],
        "traced_latencies_s": loop["traced_latencies"],
        "cache_hits": loop["cache_hits"],
        "cache_misses": loop["cache_misses"],
        "src_lines": src_lines(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    mode = "trace" if trace else "e2e"
    path = out_dir / f"{name}.seed{seed}.{mode}.{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return record


def report(record: dict) -> None:
    """Human-readable lines, then the one-line JSON result last."""
    name = record["workload"]
    print(f"# {name}  seed={record['seed']}  ops={record['attempted']} "
          f"(timed samples {record['samples']}, traced {record['traced_samples']})  "
          f"failed={record['failed']}  src_lines={record['src_lines']}")
    for key, metric in record["metrics"].items():
        if metric["value"] != 0.0 or not record["trace"]:
            print(f"{name}  {key:<40} {metric['value']:>16.6g} {metric['unit']}")
    if not record["trace"]:
        for key, value in record["latency_s"].items():
            print(f"{name}  {key:<40} {value:>16.6g} s (not gated)")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run one workload in this process (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one set-up and the fewest timed ops, for tests")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="results directory")
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Every workload in its own fresh subprocess, one after another."""
    sys.path.insert(0, str(SRC))
    from workloads import build_workloads

    status = 0
    for name in build_workloads():
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out", str(args.out),
        ]
        if args.smoke:
            command.append("--smoke")
        status |= subprocess.run(command, check=False).returncode != 0
    return int(status)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no package to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    seconds = 0.0 if args.smoke else args.seconds
    # A traced run reports no set-up time, so it sets up once.
    setups = 1 if args.smoke or args.trace else SETUPS
    record = measure(args.workload, args.seed, seconds, trace=bool(args.trace), setups=setups,
                     out_dir=args.out)
    report(record)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
