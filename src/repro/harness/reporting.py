"""Plain-text reporting of benchmark results.

The paper communicates its results as grouped bar charts and line plots; this
module renders the same numbers as aligned text tables so the benchmark
harness can print "the same rows/series the paper reports" without a plotting
dependency.
"""

from __future__ import annotations

from dataclasses import asdict, is_dataclass
from typing import Iterable, Mapping

from ..distributed.schedule import ScheduleArrays


def _coerce_row(row) -> dict:
    if is_dataclass(row) and not isinstance(row, type):
        return asdict(row)
    if isinstance(row, Mapping):
        return dict(row)
    raise TypeError(f"cannot render row of type {type(row)!r}")


def _format_value(value) -> str:
    if isinstance(value, float):
        if value == 0.0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1000 or magnitude < 0.001:
            return f"{value:.3e}"
        return f"{value:.4g}"
    if isinstance(value, tuple):
        return "(" + ", ".join(_format_value(v) for v in value) + ")"
    return str(value)


def format_table(rows: Iterable, columns: list[str] | None = None, *, title: str | None = None) -> str:
    """Render rows (dicts or dataclasses) as an aligned text table."""
    dict_rows = [_coerce_row(r) for r in rows]
    if not dict_rows:
        return (title + "\n" if title else "") + "(no rows)"
    if columns is None:
        columns = list(dict_rows[0].keys())
    rendered = [[_format_value(row.get(col, "")) for col in columns] for row in dict_rows]
    widths = [max(len(col), *(len(r[i]) for r in rendered)) for i, col in enumerate(columns)]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for r in rendered:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(columns))))
    return "\n".join(lines)


def format_series(name: str, xs, ys, *, max_points: int = 12) -> str:
    """Render an (x, y) series compactly, subsampling long series."""
    xs = list(xs)
    ys = list(ys)
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have the same length")
    if len(xs) > max_points:
        step = max(1, len(xs) // max_points)
        xs = xs[::step]
        ys = ys[::step]
    points = ", ".join(f"({_format_value(x)}, {_format_value(y)})" for x, y in zip(xs, ys))
    return f"{name}: {points}"


def format_overlap_summary(rows) -> str:
    """Summarise overlapped vs serialised iteration time per compressor.

    Accepts :class:`~repro.harness.training_runs.BenchmarkRunRow` rows (or any
    mapping with ``compressor``, ``overlap``, ``total_time``,
    ``serialized_time`` and ``overlap_saving``) and renders the event-driven
    schedule's headline comparison: how much wall-clock the overlap policy
    recovered relative to serialising compute, compression and communication.
    """
    dict_rows = [_coerce_row(r) for r in rows]
    lines = []
    for row in dict_rows:
        serialized = row.get("serialized_time", 0.0) or row.get("total_time", 0.0)
        lines.append(
            f"  {row['compressor']:<12} overlap={row.get('overlap', 'none'):<13}"
            f" overlapped={_format_value(row['total_time'])}s"
            f"  serialized={_format_value(serialized)}s"
            f"  saved={_format_value(100.0 * row.get('overlap_saving', 0.0))}%"
        )
    return "\n".join(["overlapped vs serialized iteration time:", *lines])


def format_straggler_summary(rows) -> str:
    """Summarise straggler overhead and mitigation per evaluated point.

    Accepts :class:`~repro.harness.sweep.SweepRecord`-like rows (anything with
    ``config``/``metrics`` mappings — they are merged) or flat mappings
    carrying ``sync_policy``, ``straggler_severity``, ``link_degradation``,
    ``straggler_overhead``, ``participating_workers`` and ``stragglers_cut``,
    and renders the fault layer's headline comparison: how much slower the
    faulted iteration ran than the clean schedule, and what the sync policy
    cut to get there.
    """
    lines = []
    for row in rows:
        config = getattr(row, "config", None)
        metrics = getattr(row, "metrics", None)
        merged = {**config, **metrics} if config is not None and metrics is not None else _coerce_row(row)
        lines.append(
            f"  policy={merged.get('sync_policy', 'full-sync'):<15}"
            f" severity={_format_value(merged.get('straggler_severity', 1.0))}x"
            f" link={_format_value(merged.get('link_degradation', 1.0))}x"
            f"  overhead={_format_value(merged.get('straggler_overhead', 1.0))}x"
            f"  participants={merged.get('participating_workers', '?')}"
            f"  cut={merged.get('stragglers_cut', 0)}"
        )
    return "\n".join(["straggler overhead vs clean schedule:", *lines])


def format_phase_breakdown(cost) -> str:
    """Render a collective's per-phase cost breakdown as an aligned table.

    Accepts a :class:`~repro.distributed.CollectiveCost` (or any object with
    ``op``, ``algorithm``, ``num_workers`` and ``phases`` carrying ``name`` /
    ``link`` / ``seconds`` / ``volume_bytes``) and shows where each phase of
    the collective spends its time — the topology-aware counterpart of the
    single-number `allgather_time`.

    Serial phases render back-to-back and total to their sum.  Chunk-pipelined
    phases (``start``/``chunk`` set) additionally show their placement, the
    total is the makespan, and a headline line reports the chunk count and —
    when the cost carries one — the achieved sparse-dedup ratio.
    """
    header = f"{cost.op} via {cost.algorithm} over {cost.num_workers} workers:"
    if not cost.phases:
        return "\n".join([header, "  (free: single participant)"])
    lines = [header]
    pipelined = any(getattr(phase, "start", None) is not None for phase in cost.phases)
    deduped = getattr(cost, "dedup_ratio", 1.0) != 1.0
    if pipelined or deduped:
        notes = []
        if pipelined:
            notes.append(f"pipelined over {getattr(cost, 'pipeline_chunks', '?')} chunks")
        if deduped:
            notes.append(f"dedup ratio {_format_value(cost.dedup_ratio)}x")
        lines.append("  (" + ", ".join(notes) + ")")
    for phase in cost.phases:
        label = phase.name
        chunk = getattr(phase, "chunk", None)
        if chunk is not None:
            label = f"{phase.name}[c{chunk}]"
        line = (
            f"  {label:<20} link={phase.link:<16}"
            f" t={_format_value(phase.seconds)}s"
            f"  volume={_format_value(phase.volume_bytes)}B"
        )
        start = getattr(phase, "start", None)
        if start is not None:
            line += f"  @{_format_value(start)}s"
        lines.append(line)
    if pipelined:
        total = cost.total
        label = "makespan"
    else:
        total = sum(phase.seconds for phase in cost.phases)
        label = "total"
    lines.append(f"  {label:<20} {'':<21} t={_format_value(total)}s")
    return "\n".join(lines)


def format_link_utilization(schedule: ScheduleArrays) -> str:
    """Render a schedule's per-link network utilisation as an aligned table.

    Shows, for every fabric the collective phases named, how busy the link
    was over the window from the first to the last communication event.
    This is the headline view of cross-bucket pipelining: the serial
    whole-occupancy lane leaves each fabric idle while the other works, the
    per-link lanes keep both busy.
    """
    lanes = "per-link lanes" if schedule.cross_bucket else "serial lane"
    lines = [f"network-link utilisation (overlap={schedule.policy}, {lanes}):"]
    utilization = schedule.link_utilization()
    if not utilization:
        lines.append("  (no communication events)")
        return "\n".join(lines)
    for link, stats in utilization.items():
        label = link or "(unattributed)"
        lines.append(
            f"  {label:<18} busy={_format_value(stats['busy_seconds'])}s"
            f"  window={_format_value(stats['window_seconds'])}s"
            f"  utilisation={_format_value(100.0 * stats['utilization'])}%"
        )
    return "\n".join(lines)


#: Metrics ``format_sweep_table`` shows when the caller does not choose.
_DEFAULT_SWEEP_METRICS = ("iteration_seconds", "speedup_vs_dense", "communication_seconds")


def format_sweep_table(
    result,
    *,
    metrics: tuple[str, ...] = _DEFAULT_SWEEP_METRICS,
    title: str | None = None,
) -> str:
    """Render a :class:`~repro.harness.sweep.SweepResult` as an aligned table.

    Columns are the workload, then only the knobs that actually vary across
    the sweep (constant knobs are noise in a what-if comparison), then the
    requested metric columns.  Accepts any object with ``records`` carrying
    ``workload`` / ``config`` / ``metrics``.
    """
    records = list(result.records)
    if not records:
        return (title + "\n" if title else "") + "(no rows)"
    varying = [
        knob
        for knob in records[0].config
        if len({record.config.get(knob) for record in records}) > 1
    ]
    rows = [
        {
            "workload": record.workload,
            **{knob: record.config.get(knob) for knob in varying},
            **{metric: record.metrics.get(metric) for metric in metrics},
        }
        for record in records
    ]
    return format_table(rows, ["workload", *varying, *metrics], title=title)


def format_speedup_summary(rows, *, group_by: str = "ratio") -> str:
    """Summarise benchmark-comparison rows grouped by ratio (the paper's bar groups)."""
    dict_rows = [_coerce_row(r) for r in rows]
    groups: dict = {}
    for row in dict_rows:
        groups.setdefault(row[group_by], []).append(row)
    lines = []
    for key in sorted(groups):
        lines.append(f"{group_by}={key}:")
        for row in groups[key]:
            lines.append(
                f"  {row['compressor']:<12} speedup={_format_value(row['speedup_vs_baseline'])}"
                f"  tput={_format_value(row['throughput_vs_baseline'])}"
                f"  est_quality={_format_value(row['estimation_quality'])}"
            )
    return "\n".join(lines)
