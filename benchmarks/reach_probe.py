"""Reach probe: which functions in ``src/repro`` any caller that matters enters.

Every function defined under ``src/repro`` falls in one of three classes:

* **product** -- entered by a product path: the five end-to-end workloads
  (``benchmarks/e2e/run.py --workload W --smoke``), the examples,
  ``benchmarks/record_hashes.py`` and the ``benchmarks/test_*.py`` modules
  (at smoke scale where a module reads ``SIDCO_SMOKE_DIMENSION``, as CI runs
  the slow ones);
* **tier-1 only** -- entered only by the tier-1 suite (``pytest tests``);
* **nothing** -- entered by neither.

A function whose body is only ``raise NotImplementedError`` (after an
optional docstring) is an abstract stub: it is meant never to run, so an
unreached stub is counted apart and never listed under "nothing".

Each run is a fresh subprocess of this script that records, with
``sys.setprofile``, every code object it enters and maps it back to its
``def`` by file, first line and name::

    PYTHONPATH=src python benchmarks/reach_probe.py            # report
    PYTHONPATH=src python benchmarks/reach_probe.py --check    # exit 1 on dead code
    PYTHONPATH=src python benchmarks/reach_probe.py --lines src/repro/distributed/timeline.py

``--check`` fails when any non-stub function is reached by nothing, when a
tier-1-only function is not on :data:`ALLOWLIST`, when an allowlist entry is
stale (its function is gone, or is no longer tier-1 only), or when a run fails
(its reach would be incomplete).  The report ends with the line count of
``src/`` (``wc -l`` over ``src/**/*.py``).

``--lines PATH`` looks inside one module instead: it runs only the product
paths, under a ``sys.settrace`` line tracer limited to that module's frames,
and prints the module's executable lines (those its compiled code objects
map instructions to) that no product run executes.  It is an on-demand
check, not a CI gate.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import runpy
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "repro"
WORKLOADS = ("train-lstm", "train-cnn-faults", "compress-sidco", "tune-cold", "tune-warm")
#: Gradient size for the benchmark modules that can shrink (as in CI's smoke steps).
SMOKE_DIMENSION = "500000"


def product_runs(out_dir: Path) -> list[tuple[str, list[str]]]:
    """(label, argv after ``python``) for every product path."""
    runs = [
        (f"e2e {name}", ["benchmarks/e2e/run.py", "--workload", name, "--smoke",
                         "--out", str(out_dir / "e2e")])
        for name in WORKLOADS
    ]
    runs += [(f"example {path.stem}", [str(path.relative_to(REPO))])
             for path in sorted((REPO / "examples").glob("*.py"))]
    runs.append(("record_hashes", ["benchmarks/record_hashes.py"]))
    runs.append(("benchmarks", ["-m", "pytest", "-q", "-p", "no:cacheprovider",
                                *sorted(str(p.relative_to(REPO))
                                        for p in (REPO / "benchmarks").glob("test_*.py"))]))
    return runs


TIER1_RUNS = [("tier-1", ["-m", "pytest", "-q", "-p", "no:cacheprovider", "tests"])]

_FAULT_KNOB = "a fault constructor or injector, reached through TrainerConfig's fault knobs"
_COLLECTIVE_KNOB = "a collective algorithm, reached through SimulationKnobs' algorithm values"
_README = "README documents it"
_E2E_TRACER = "benchmarks/e2e/tracer.py patches it (NN_MODELS); it leaves with that file's next change"
_ABSTRACT = "abstract: every subclass overrides it"

#: The functions that stay in ``src/`` although only tier-1 enters them, each
#: with the reason it stays ("path::qualname" as the report prints it).
ALLOWLIST: dict[str, str] = {
    "src/repro/compressors/base.py::Compressor.fit_all_buckets": _ABSTRACT,
    "src/repro/core/sidco.py::SIDCo._fit_top_k": (
        "degenerate-input safety: the exact-k selection of a row with d < 2 or no nonzero "
        "magnitude, which no product gradient has"
    ),
    "src/repro/core/stages.py::StageControllerConfig.error_tolerance": (
        "CI's full-scale >= 2x bucketed-SIDCo throughput floor reads it "
        "(benchmarks/test_pipeline_throughput.py, skipped at smoke scale)"
    ),
    "src/repro/distributed/faults.py::ClusterProfile.homogeneous": _FAULT_KNOB,
    "src/repro/distributed/faults.py::ClusterProfile.from_factors": _FAULT_KNOB,
    "src/repro/distributed/faults.py::ClusterProfile.lognormal": _FAULT_KNOB,
    "src/repro/distributed/faults.py::StragglerInjector.__post_init__": _FAULT_KNOB,
    "src/repro/distributed/faults.py::StragglerInjector.apply": _FAULT_KNOB,
    "src/repro/distributed/faults.py::LinkDegradation.__post_init__": _FAULT_KNOB,
    "src/repro/distributed/faults.py::LinkDegradation.apply": _FAULT_KNOB,
    "src/repro/distributed/metrics.py::TrainingMetrics.straggler_summary": _README,
    "src/repro/distributed/network.py::NetworkModel.allgather_time": (
        "the golden closed-form reference every topology all-gather reproduces bit-for-bit"
    ),
    "src/repro/distributed/network.py::get_network": _README,
    "src/repro/distributed/timeline.py::TimelineModel.bucket_communication_times": (
        "the one public view of per-bucket all-gather pricing, which the timeline and "
        "schedule suites pin"
    ),
    "src/repro/distributed/topology.py::CollectiveCost.serial_seconds": (
        "the property that a pipelined collective never takes longer than its serial traversal"
    ),
    "src/repro/distributed/topology.py::RecursiveDoubling._allreduce": _COLLECTIVE_KNOB,
    "src/repro/distributed/topology.py::RecursiveDoubling._allgather": _COLLECTIVE_KNOB,
    "src/repro/distributed/topology.py::Hierarchical._allreduce": _COLLECTIVE_KNOB,
    "src/repro/distributed/topology.py::Hierarchical._allreduce.tree_phase": _COLLECTIVE_KNOB,
    "src/repro/harness/reporting.py::format_overlap_summary": _README,
    "src/repro/harness/reporting.py::format_straggler_summary": _README,
    "src/repro/harness/reporting.py::format_phase_breakdown": _README,
    "src/repro/harness/reporting.py::format_link_utilization": _README,
    "src/repro/harness/sweep.py::SweepPoint.__reduce__": (
        "the pickle re-hash guard: a point unpickled in another process recomputes its hash"
    ),
    "src/repro/nn/models.py::MLPClassifier.__init__": _E2E_TRACER,
    "src/repro/nn/models.py::MLPClassifier.forward": _E2E_TRACER,
    "src/repro/nn/models.py::MLPClassifier.backward": _E2E_TRACER,
    "src/repro/nn/module.py::Module.forward": _ABSTRACT,
    "src/repro/nn/module.py::Module.backward": _ABSTRACT,
    "src/repro/stats/distributions.py::Exponential.pdf": (
        "the one-sided exponential's density: tier-1 checks Corollary 1.1 and the GP's "
        "shape-zero limit against it (Gamma's and the GP's are product through the double SIDs)"
    ),
    "src/repro/stats/distributions.py::Exponential.cdf": (
        "the one-sided exponential's distribution function, checked like its density"
    ),
    "src/repro/stats/distributions.py::Exponential.ppf": (
        "the one-sided exponential's quantile, checked like its density"
    ),
    "src/repro/stats/distributions.py::GeneralizedPareto.threshold_for_ratio": (
        "SIDCo-p's scalar oracle (tests/pipeline/threshold_reference.py) reaches it through "
        "estimate_threshold; the product prices GP thresholds in pipeline/vectorized.py"
    ),
}


# -- the functions ------------------------------------------------------------


def _is_stub(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Raise) or body[0].exc is None:
        return False
    exc = body[0].exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def functions() -> dict[tuple[str, int, str], dict]:
    """Every ``def`` under the package, keyed like a code object (file, first line, name)."""
    found = {}

    def visit(node, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                qualname = f"{prefix}{child.name}"
                found[(path, first, child.name)] = {
                    "name": f"{path}::{qualname}",
                    "lines": child.end_lineno - first + 1,
                    "stub": _is_stub(child),
                }
                visit(child, path, f"{qualname}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for file in sorted(PACKAGE.rglob("*.py")):
        path = str(file.relative_to(REPO))
        visit(ast.parse(file.read_text(), filename=str(file)), path, "")
    return found


# -- one recorded run ---------------------------------------------------------


def executable_lines(path: Path) -> set[int]:
    """The lines of a module that its compiled code objects map instructions to.

    Line 0 (the module's own entry instruction) and unnumbered ones are left out.
    """
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def record(out: Path, argv: list[str], lines: Path | None = None) -> int:
    """Run ``python argv`` in this process, then write the package code it entered.

    With ``lines``, write instead the line numbers of that module it executed.
    """
    entered: dict[int, object] = {}
    executed: set[int] = set()
    target = None if lines is None else str(lines.resolve())

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if id(code) not in entered:
                entered[id(code)] = code

    def trace_lines(frame, event, arg):
        if event == "line":
            executed.add(frame.f_lineno)
        return trace_lines

    def trace(frame, event, arg):
        return trace_lines if frame.f_code.co_filename == target else None

    # Lay out argv and sys.path[0] as ``python argv`` would.
    if argv[0] == "-m":
        sys.argv = [argv[1], *argv[2:]]
        script, run = argv[1], runpy.run_module
        sys.path[0] = os.getcwd()
    else:
        sys.argv = list(argv)
        script, run = argv[0], runpy.run_path
        sys.path[0] = str(Path(script).resolve().parent)
    status = 0
    if lines is None:
        sys.setprofile(profile)
    else:
        sys.settrace(trace)
    try:
        run(script, run_name="__main__")
    except SystemExit as stop:
        status = stop.code if isinstance(stop.code, int) else int(stop.code is not None)
    finally:
        sys.setprofile(None)
        sys.settrace(None)
        prefix = str(PACKAGE) + os.sep
        reached = sorted(executed) if lines is not None else sorted({
            (str(Path(code.co_filename).relative_to(REPO)), code.co_firstlineno, code.co_name)
            for code in entered.values() if code.co_filename.startswith(prefix)
        })
        out.write_text(json.dumps(reached))
    return status


def reach(runs, scratch: Path, lines: Path | None = None) -> tuple[set, list[str]]:
    """Union of what ``runs`` enter (or execute of ``lines``), and the runs that failed."""
    env = {**os.environ, "SIDCO_SMOKE_DIMENSION": SMOKE_DIMENSION,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(REPO / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    reached, failed = set(), []
    for index, (label, argv) in enumerate(runs):
        out = scratch / f"reach-{label.replace(' ', '-')}-{index}.json"
        start = time.perf_counter()
        module = [] if lines is None else ["--lines", str(lines.resolve())]
        proc = subprocess.run(
            [sys.executable, __file__, "--record", str(out), *module, "--", *argv],
            cwd=REPO, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        print(f"  {label}: {time.perf_counter() - start:.0f} s"
              + ("" if proc.returncode == 0 else f"  FAILED ({proc.returncode})"), flush=True)
        if proc.returncode != 0:
            failed.append(label)
            print(proc.stdout[-3000:], file=sys.stderr)
        if out.exists():
            keys = json.loads(out.read_text())
            reached |= set(keys) if lines is not None else {tuple(key) for key in keys}
    return reached, failed


# -- report -------------------------------------------------------------------


def classify(found: dict, product: set, tier1: set) -> dict[str, list[tuple]]:
    """Each function key in its class: product, tier-1 only, nothing, or an unreached stub."""
    classes = {"product": [], "tier-1 only": [], "nothing": [], "unreached stubs": []}
    for key, info in found.items():
        if key in product:
            classes["product"].append(key)
        elif key in tier1:
            classes["tier-1 only"].append(key)
        elif info["stub"]:
            classes["unreached stubs"].append(key)
        else:
            classes["nothing"].append(key)
    return classes


def check_allowlist(
    found: dict, classes: dict[str, list[tuple]], allowlist: dict[str, str]
) -> tuple[list[str], dict[str, str]]:
    """Tier-1-only functions missing from ``allowlist``, and its stale entries with why."""
    tier1_only = {found[key]["name"] for key in classes["tier-1 only"]}
    class_of = {found[key]["name"]: name for name, keys in classes.items() for key in keys}
    unlisted = sorted(tier1_only - set(allowlist))
    stale = {}
    for name in sorted(set(allowlist) - tier1_only):
        where = class_of.get(name)
        stale[name] = "gone" if where is None else f"now {where}"
    return unlisted, stale


def src_lines() -> int:
    """Line count of ``src/`` as ``wc -l`` over ``src/**/*.py`` gives it."""
    return sum(len(path.read_bytes().splitlines()) for path in (REPO / "src").rglob("*.py"))


def report_lines(path: Path) -> int:
    """Print ``path``'s executable lines that no product path executes."""
    source = path.read_text().splitlines()
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        print("product paths:", flush=True)
        executed, failed = reach(product_runs(Path(tmp)), Path(tmp), lines=path)
    executable = executable_lines(path)
    missed = sorted(executable - executed)
    print(f"\n{path}: {len(executable)} executable lines, "
          f"{len(missed)} executed by no product path")
    for line in missed:
        print(f"  {path}:{line}: {source[line - 1].strip()}")
    if failed:
        print(f"\nfailed runs (reach incomplete): {', '.join(failed)}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on code reached by nothing, an unlisted tier-1-only "
                             "function, a stale allowlist entry, or a failed run")
    parser.add_argument("--lines", type=Path, metavar="PATH",
                        help="print the executable lines of one module that no product "
                             "path executes")
    parser.add_argument("--record", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("command", nargs=argparse.REMAINDER, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.record is not None:
        command = args.command[1:] if args.command[:1] == ["--"] else args.command
        return record(args.record, command, args.lines)
    if args.lines is not None:
        return report_lines(args.lines)

    found = functions()
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        scratch = Path(tmp)
        print("product paths:", flush=True)
        product, failed = reach(product_runs(scratch), scratch)
        print("tier-1:", flush=True)
        tier1, tier1_failed = reach(TIER1_RUNS, scratch)
    failed += tier1_failed

    classes = classify(found, product, tier1)
    print(f"\n{len(found)} functions, {sum(f['lines'] for f in found.values())} lines "
          f"in {PACKAGE.relative_to(REPO)}")
    for name, keys in classes.items():
        lines = sum(found[key]["lines"] for key in keys)
        print(f"  {name:16s} {len(keys):5d} functions {lines:6d} lines")
    for name in ("tier-1 only", "nothing", "unreached stubs"):
        if classes[name]:
            print(f"\n{name}:")
            for key in sorted(classes[name]):
                print(f"  {found[key]['name']} ({found[key]['lines']} lines)")
    unlisted, stale = check_allowlist(found, classes, ALLOWLIST)
    print(f"\nallowlist: {len(ALLOWLIST)} entries")
    for name in unlisted:
        print(f"  tier-1 only and not on the allowlist: {name}")
    for name, why in stale.items():
        print(f"  stale allowlist entry ({why}): {name}")
    print(f"\nsrc lines: {src_lines()}")
    if failed:
        print(f"\nfailed runs (reach incomplete): {', '.join(failed)}")
    if args.check and (classes["nothing"] or unlisted or stale or failed):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
