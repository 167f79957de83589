"""Compare two sets of end-to-end results under the bounds in BENCHMARK.json.

    python3 benchmarks/e2e/compare.py BASE NEW

``BASE`` and ``NEW`` are results directories (``run.py --out``) or single
result files.  Untraced results are grouped by workload; for every
(workload, end-to-end metric) the script reports each side's median and
quartiles and one verdict:

* ``REGRESSION`` -- the new median is worse than the base median by more
  than the metric's bound (a share of the base median);
* ``unresolved`` -- not a regression, but the run-to-run spread of either
  side (interquartile range over median) is wider than the bound, so
  "unchanged" cannot be claimed -- unless every new run reads better than
  every base run, which is reported as ``better``;
* ``better`` / ``ok`` -- otherwise, by the direction of the change.

The error rate (failed over attempted ops) regresses on any increase.  The
exit status is 1 when anything regressed, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_results(path: Path) -> dict[str, list[dict]]:
    """Untraced result records under ``path``, grouped by workload."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    grouped: dict[str, list[dict]] = {}
    for file in files:
        record = json.loads(file.read_text())
        if isinstance(record, dict) and "workload" in record and not record.get("trace"):
            grouped.setdefault(record["workload"], []).append(record)
    return grouped


def summary(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def cell(q1: float, median: float, q3: float) -> str:
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def verdict(base: list[float], new: list[float], better: str, bound: float) -> tuple[str, float]:
    """(verdict, change of the new median over the base median, signed so > 0 is worse)."""
    base_q1, base_median, base_q3 = summary(base)
    new_q1, new_median, new_q3 = summary(new)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (new_median - base_median) / base_median
    spread = max((base_q3 - base_q1) / base_median, (new_q3 - new_q1) / new_median)
    if better == "lower":
        all_better = max(new) < min(base)
    else:
        all_better = min(new) > max(base)
    if worse_by > bound:
        return "REGRESSION", worse_by
    if all_better:
        return "better", worse_by
    if spread > bound:
        return "unresolved", worse_by
    return ("better" if worse_by < 0 else "ok"), worse_by


def compare(base: dict[str, list[dict]], new: dict[str, list[dict]], metrics: list[dict]):
    """Rows of (workload, metric, base summary, new summary, change, bound, verdict)."""
    rows = []
    for workload in sorted(set(base) & set(new)):
        for metric in metrics:
            name = metric["name"]
            base_values = [r["metrics"][name]["value"] for r in base[workload]]
            new_values = [r["metrics"][name]["value"] for r in new[workload]]
            status, change = verdict(base_values, new_values, metric["better"], metric["bound"])
            rows.append((workload, name, summary(base_values), summary(new_values), change,
                         metric["bound"], status))
        base_errors = statistics.fmean(r["error_rate"] for r in base[workload])
        new_errors = statistics.fmean(r["error_rate"] for r in new[workload])
        status = "REGRESSION" if new_errors > base_errors else "ok"
        rows.append((workload, "error_rate", (base_errors,) * 3, (new_errors,) * 3,
                     new_errors - base_errors, 0.0, status))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)

    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    base, new = load_results(args.base), load_results(args.new)
    missing = sorted(set(base) ^ set(new))
    if missing:
        print(f"workloads on one side only (not compared): {missing}", file=sys.stderr)
    rows = compare(base, new, metrics)
    if not rows:
        print("no workload has results on both sides", file=sys.stderr)
        return 2
    print(f"{'workload':<17} {'metric':<12} {'base median [q1, q3]':<34} "
          f"{'new median [q1, q3]':<34} {'worse by':>9} {'bound':>6}  verdict")
    for workload, name, base_q, new_q, change, bound, status in rows:
        print(f"{workload:<17} {name:<12} {cell(*base_q):<34} {cell(*new_q):<34} "
              f"{change:>+9.2%} {bound:>6.0%}  {status}")
    runs = {w: (len(base[w]), len(new[w])) for w in sorted(set(base) & set(new))}
    print(f"runs per workload (base, new): {runs}")
    return 1 if any(row[-1] == "REGRESSION" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
