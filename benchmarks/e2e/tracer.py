"""Spans around the public callables of each ``repro`` layer, patched from outside.

The benchmark times the program's layers without changing the program: for a
traced op, :meth:`Tracer.installed` replaces each listed callable, at the
module or class its caller looks it up in, by a wrapper that records a span,
and puts the original object back afterwards.  A function imported by name
(``from .schedule import simulate_iteration_arrays``) is patched in the
importing module, because that is the name the caller resolves at call time.

Accounting is aggregated online, so memory does not grow with the run:

* ``calls`` -- how many times the layer's callable ran;
* ``self`` -- the span's duration minus the part of it covered by child spans
  (of any layer), so the self times of all spans, plus the op root's own self
  time, add up to the traced wall time.

The spans of the first traced op are also kept as Chrome trace events (``--trace`` writes them to ``trace-<workload>.json``, which
opens in Perfetto or ``chrome://tracing``); later ops only feed the
aggregates, so keeping events costs nothing in the rest of the run.

A wrapper takes exactly the parameters of the callable it wraps, generated
from its signature: forwarding ``*args, **kwargs`` instead costs about as much
again as the timing itself, which matters on the planner's microsecond calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from contextlib import contextmanager
from pathlib import Path

#: Top-level model classes of :mod:`repro.nn.models`; their ``forward`` and
#: ``backward`` are the nn layer's public entry points (submodules run inside).
NN_MODELS = (
    "MLPClassifier",
    "CNNClassifier",
    "ResNetProxy",
    "LSTMLanguageModel",
    "LSTMSequenceClassifier",
)

#: Span name -> import sites (``module:attr`` or ``module:Class.attr``).
#:
#: Kept are the layers that take at least 0.5% of some workload's traced
#: time; a smaller one is left unpatched, so its time counts in its caller's
#: span.  Merged that way: the loop scheduler (no workload selects it), the
#: per-collective ``CollectiveModel`` costs and the dense baseline, the two
#: collectives, the fault layer's pricing and rates, ``SGD.step``, clipping,
#: ``DeviceProfile.trace_cost``, ``CompressionPipeline.layout_for`` and the
#: trainer's ``__init__``/``evaluate``.
LAYERS: dict[str, tuple[str, ...]] = {
    "nn.forward": tuple(f"repro.nn.models:{cls}.forward" for cls in NN_MODELS),
    "nn.backward": tuple(f"repro.nn.models:{cls}.backward" for cls in NN_MODELS),
    "nn.loss": (
        "repro.distributed.worker:cross_entropy",
        "repro.distributed.trainer:cross_entropy",
    ),
    "compressors.fit.sidco": ("repro.core.sidco:SIDCo.fit_all_buckets",),
    "compressors.fit.dgc": ("repro.compressors.dgc:DGC.fit_all_buckets",),
    "compressors.fit.topk": ("repro.compressors.topk:TopK.fit_all_buckets",),
    "pipeline.compress": ("repro.pipeline.pipeline:CompressionPipeline.compress",),
    "data.next_batch": ("repro.data.loader:BatchIterator.next_batch",),
    "tensor.flatten": (
        "repro.distributed.worker:flatten",
        "repro.distributed.trainer:unflatten",
    ),
    "optim.ef_correct": ("repro.optim.error_feedback:ErrorFeedback.correct",),
    "optim.ef_update": ("repro.optim.error_feedback:ErrorFeedback.update",),
    "schedule.simulate_arrays": ("repro.distributed.timeline:simulate_iteration_arrays",),
    "topology.phase_table": ("repro.distributed.topology:CollectiveModel.allgather_phase_table",),
    "timeline.compressed_iteration": (
        "repro.distributed.timeline:TimelineModel.compressed_iteration",
    ),
    "sweep.expand": ("repro.harness.sweep:SweepSpec.expand",),
    "sweep.point_from_config": ("repro.harness.sweep:SweepPoint.from_config",),
    "sweep.evaluate_point": (
        "repro.harness.sweep:evaluate_point",
        "repro.harness.tuner:evaluate_point",
    ),
    "sweep.cache_fetch": ("repro.harness.sweep:SweepCache.fetch",),
    "sweep.gradient": ("repro.harness.sweep:realistic_gradient",),
    "tuner.autotune": ("repro.harness.tuner:autotune",),
    "trainer.loop": ("repro.harness.training_runs:run_benchmark",),
    "harness.build_inputs": (
        "repro.harness.configs:BenchmarkConfig.build_proxy_dataset",
        "repro.harness.configs:BenchmarkConfig.build_proxy_model",
    ),
}

#: Name of the span around each whole op; its self time is what no layer
#: span covers.
ROOT = "op"


#: Body of every span wrapper; ``{params}``/``{args}`` mirror the wrapped
#: signature and the ``_t_`` names come from :meth:`Tracer._span`.
_WRAPPER = """
def wrapper({params}):
    _t_before = _t_closed[0]
    _t_start = _t_clock()
    try:
        _t_result = _t_fn({args})
    finally:
        _t_duration = _t_clock() - _t_start
        _t_stat[0] += 1
        _t_stat[1] += _t_duration - (_t_closed[0] - _t_before)
        _t_closed[0] = _t_before + _t_duration
        if _t_recording[0]:
            _t_spans.append((_t_name, _t_start, _t_duration))
    if _t_observe is not None:
        _t_observe(_t_result)
    return _t_result
"""


def forwarding(fn) -> tuple[str, str, dict]:
    """``(params, args, defaults)`` source that passes every argument through unchanged."""
    params, args, defaults = [], [], {}
    starred = False
    parameters = list(inspect.signature(fn, follow_wrapped=False).parameters.values())
    for index, param in enumerate(parameters):
        name = param.name
        if param.kind is param.VAR_POSITIONAL:
            params.append(f"*{name}")
            args.append(f"*{name}")
            starred = True
            continue
        if param.kind is param.VAR_KEYWORD:
            params.append(f"**{name}")
            args.append(f"**{name}")
            continue
        if param.kind is param.KEYWORD_ONLY and not starred:
            params.append("*")
            starred = True
        default = ""
        if param.default is not param.empty:
            defaults[f"_t_d{index}"] = param.default
            default = f"=_t_d{index}"
        params.append(name + default)
        args.append(f"{name}={name}" if param.kind is param.KEYWORD_ONLY else name)
        last_positional_only = param.kind is param.POSITIONAL_ONLY and (
            index + 1 == len(parameters) or parameters[index + 1].kind is not param.POSITIONAL_ONLY
        )
        if last_positional_only:
            params.append("/")
    return ", ".join(params), ", ".join(args), defaults


def resolve(site: str):
    """``(owner, attr, raw)`` for an import site; ``raw`` is the stored object."""
    module_name, path = site.split(":")
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr, vars(owner)[attr]


class Tracer:
    """Self-time accounting over the spans of :data:`LAYERS`.

    ``observers`` maps a span name to a callable run on that span's return
    value after the span closes; the benchmark's counters are built that way.
    ``clock`` returns integer nanoseconds (a test passes a fake one).
    """

    def __init__(self, layers=None, *, observers=None, clock=time.perf_counter_ns) -> None:
        self.layers = dict(LAYERS if layers is None else layers)
        self.clock = clock
        self.observers = dict(observers or {})
        #: span name -> [calls, self_ns]
        self.stats: dict[str, list[int]] = {name: [0, 0] for name in (ROOT, *self.layers)}
        #: (name, start_ns, duration_ns) of the spans of the first op
        self.spans: list[tuple[str, int, int]] = []
        #: (name, ts_ns, args) Chrome counter samples
        self.counter_samples: list[tuple[str, int, dict]] = []
        self.epoch_ns = clock()
        # Running total of the durations of closed spans.  A span's children
        # are exactly the spans closed between its entry and exit, and each
        # closing span replaces its own children's share of the total with
        # its whole duration, so ``total(exit) - total(entry)`` is the time
        # covered by direct children.  One cell is cheaper than a stack.
        self._closed = [0]
        self._recording = [True]
        self._wrappers = {
            site: self._patched(name, resolve(site)[2])
            for name, sites in self.layers.items()
            for site in sites
        }

    # -- spans ---------------------------------------------------------------

    def _span(self, name: str, fn):
        params, args, defaults = forwarding(fn)
        namespace = {
            "_t_fn": fn,
            "_t_name": name,
            "_t_clock": self.clock,
            "_t_closed": self._closed,
            "_t_stat": self.stats[name],
            "_t_recording": self._recording,
            "_t_spans": self.spans,
            "_t_observe": self.observers.get(name),
            **defaults,
        }
        exec(_WRAPPER.format(params=params, args=args), namespace)
        return functools.update_wrapper(namespace["wrapper"], fn)

    def _patched(self, name: str, raw):
        """The replacement stored in place of ``raw`` (keeps class/static binding)."""
        if isinstance(raw, (classmethod, staticmethod)):
            return type(raw)(self._span(name, raw.__func__))
        return self._span(name, raw)

    def run_op(self, fn):
        """Call ``fn()`` under the root span; returns its result."""
        closed = self._closed
        before = closed[0]
        start = self.clock()
        try:
            return fn()
        finally:
            duration = self.clock() - start
            stat = self.stats[ROOT]
            stat[0] += 1
            stat[1] += duration - (closed[0] - before)
            closed[0] = before + duration
            if self._recording[0]:
                self.spans.append((ROOT, start, duration))
                self._recording[0] = False

    def counter(self, name: str, **values) -> None:
        """Record one Chrome counter sample."""
        self.counter_samples.append((name, self.clock(), values))

    # -- patching ------------------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch every import site for the duration of the block, then restore it."""
        applied = []
        try:
            for site, replacement in self._wrappers.items():
                owner, attr, raw = resolve(site)
                setattr(owner, attr, replacement)
                applied.append((owner, attr, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(applied):
                setattr(owner, attr, raw)

    # -- results -------------------------------------------------------------

    def self_ns(self, name: str) -> int:
        return self.stats[name][1]

    def calls(self, name: str) -> int:
        return self.stats[name][0]

    def chrome_trace(self, process_name: str) -> dict:
        """The recorded spans and counters as a Chrome trace-event document.

        Each span is one complete (``"X"``) event on a single thread; viewers
        nest them by time, which matches the call nesting because the
        simulator runs in one thread.
        """
        def us(ns: int) -> float:
            return (ns - self.epoch_ns) / 1000.0

        events = [
            {"name": "process_name", "ph": "M", "pid": 1, "args": {"name": process_name}},
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1, "args": {"name": "main"}},
        ]
        # Parents before children at equal start times, so viewers nest them.
        for name, start, duration in sorted(self.spans, key=lambda s: (s[1], -s[2])):
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X", "pid": 1, "tid": 1,
                "ts": us(start), "dur": duration / 1000.0,
            })
        for name, ts, values in self.counter_samples:
            events.append({"name": name, "ph": "C", "pid": 1, "ts": us(ts), "args": values})
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: Path, process_name: str) -> None:
        path.write_text(json.dumps(self.chrome_trace(process_name)))
