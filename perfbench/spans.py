"""Span recording around the public calls of each layer of ``repro``.

A traced benchmark pass calls :func:`install`, which replaces the
public functions and methods of every measured layer with thin
wrappers.  Each wrapper records one span — name, start, end, parent
span and operation id — into an in-memory :class:`Recorder`; nothing
is written until the pass ends (:meth:`Recorder.dump`).  Nothing under
``src/`` is modified: the wrappers live here and are bound at run time,
both in the benchmark's agent processes and in the serve daemon
launcher.

Times are ``time.perf_counter_ns()`` readings, which on Linux come from
the system-wide monotonic clock, so spans recorded by the serve daemon
and by the benchmark client share one time base.

:func:`layer_metrics` turns one pass's spans into the per-layer
metrics the benchmark reports: the *self time* of every layer (a span's
duration minus the time its direct children cover), call counts,
latency percentiles and the exact simulated counts.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

#: span name -> per-layer metric reporting its summed self time (s)
SELF_TIME_METRICS = {
    "profiling.profile": "profiling.profile_s",
    "profiling.select": "profiling.select_s",
    "sim.functional.trace": "sim.functional.trace_s",
    "predictors.eval_trace": "predictors.eval_trace_s",
    "workloads.golden": "workloads.golden_s",
    "sim.pipeline.simulate": "sim.pipeline.simulate_s",
    "telemetry.traced_sim": "telemetry.traced_sim_s",
    "faults.injected_sim": "faults.injected_sim_s",
    "runner.cache.get": "runner.cache.get_s",
    "runner.cache.put": "runner.cache.put_s",
    "runner.map_specs": "runner.map_specs_s",
    "dse.objectives": "dse.objectives_s",
    "wal.append": "wal.append_s",
}

#: span name -> per-layer metric counting its calls
CALL_METRICS = {
    "profiling.profile": "profiling.profile_calls",
    "sim.functional.trace": "sim.functional.trace_calls",
    "telemetry.traced_sim": "telemetry.traced_runs",
    "runner.cache.get": "runner.cache.get_calls",
    "runner.cache.put": "runner.cache.put_calls",
    "runner.execute_plain": "runner.execute_plain_calls",
    "runner.execute_metrics": "runner.execute_metrics_calls",
    "wal.append": "wal.appends",
}

#: spans that start one benchmark operation (a design point or served
#: run executed, a fault injection replayed); every span nested inside
#: one carries its operation id
OPERATION_SPANS = ("runner.execute_plain", "runner.execute_metrics",
                   "faults.injected_sim")

#: the pipeline layer's exact counts, summed over every run_pipeline
#: call whatever its mode (plain, traced or with a fault injector), so
#: that moving runs between modes leaves them unchanged
EXACT_COUNTS = {
    "cycles": "sim.pipeline.cycles",
    "committed": "sim.pipeline.instructions",
    "folds_committed": "asbr.folds_committed",
}


class Recorder:
    """In-memory span store; one per traced process.

    A span is ``[name, start_ns, end_ns, parent, op, attrs]`` where
    ``parent`` is the enclosing span's list (or None) on the same
    thread and ``op`` the id of the operation it belongs to (see
    :data:`OPERATION_SPANS`; None outside any operation).
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._ops = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args, kwargs,
             attrs: Optional[Callable] = None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``;
        ``attrs(args, kwargs, result)`` may annotate the span (``result``
        is None when the call raised)."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        op = (next(self._ops) if name in OPERATION_SPANS
              else parent[4] if parent is not None else None)
        span = [name, time.perf_counter_ns(), 0, parent, op, None]
        self.spans.append(span)       # list.append is atomic
        stack.append(span)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            span[2] = time.perf_counter_ns()
            stack.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs, result)

    def dump(self) -> List[list]:
        """Spans as JSON-ready rows, parents as row indices."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [[s[0], s[1], s[2],
                 index[id(s[3])] if s[3] is not None else -1,
                 s[4], s[5]] for s in self.spans]


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _rebind(orig, wrapper) -> None:
    """Point every module-level reference to ``orig`` in the loaded
    ``repro`` modules at ``wrapper`` (callers that imported the name
    directly hold their own reference)."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro"
                               or name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)


def _spanned(rec: Recorder, orig: Callable, name, attrs=None) -> Callable:
    """``orig`` recorded as a span; ``name`` is a string or a function
    of the call's arguments."""
    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        span = name(args, kwargs) if callable(name) else name
        return rec.call(span, orig, args, kwargs, attrs)
    return wrapper


def _wrap_function(rec: Recorder, module, attr: str, name,
                   attrs=None) -> None:
    orig = getattr(module, attr)
    _rebind(orig, _spanned(rec, orig, name, attrs))


def _wrap_method(rec: Recorder, cls, attr: str, name,
                 attrs=None) -> None:
    setattr(cls, attr, _spanned(rec, getattr(cls, attr), name, attrs))


def _pipeline_mode(args, kwargs) -> str:
    if kwargs.get("on_sim") is not None:
        return "faults.injected_sim"
    if kwargs.get("trace") is not None:
        return "telemetry.traced_sim"
    return "sim.pipeline.simulate"


def _pipeline_attrs(args, kwargs, result) -> dict:
    from repro.faults.inject import FaultInjector
    on_sim = kwargs.get("on_sim")
    # a per-site replay arms one injector through its bound attach();
    # the batched replay arms a whole plan at once
    out = {"per_site": isinstance(getattr(on_sim, "__self__", None),
                                  FaultInjector)}
    if result is not None:       # a crashed or hung replay has no stats
        stats = result.stats
        out.update(cycles=stats.cycles, committed=stats.committed,
                   folds_committed=stats.folds_committed)
    return out


def _spec_attrs(args, kwargs, _result) -> dict:
    spec = args[0] if args else kwargs["spec"]
    return {"asbr": bool(spec.with_asbr)}


def _hit_attrs(args, kwargs, result) -> dict:
    return {"hit": result is not None}


def install(rec: Recorder) -> None:
    """Wrap the public entry points of every measured layer."""
    import repro.cli  # noqa: F401  (binds the CLI's imports first)
    import repro.dse
    import repro.dse.objectives
    import repro.faults
    import repro.predictors.evaluate
    import repro.profiling.selection
    import repro.runner.pool
    import repro.runner.sweep
    import repro.serve
    import repro.sim.functional
    from repro.profiling.profiler import BranchProfiler
    from repro.runner.cache import ResultCache
    from repro.wal import JsonlWal
    from repro.workloads.loader import Workload

    _wrap_method(rec, BranchProfiler, "profile", "profiling.profile")
    _wrap_function(rec, repro.profiling.selection, "select_branches",
                   "profiling.select")
    _wrap_function(rec, repro.sim.functional, "collect_branch_trace",
                   "sim.functional.trace")
    _wrap_function(rec, repro.predictors.evaluate, "evaluate_on_trace",
                   "predictors.eval_trace")
    _wrap_method(rec, Workload, "golden_output", "workloads.golden")
    _wrap_method(rec, Workload, "run_pipeline", _pipeline_mode,
                 _pipeline_attrs)
    _wrap_method(rec, ResultCache, "get", "runner.cache.get", _hit_attrs)
    _wrap_method(rec, ResultCache, "put", "runner.cache.put")
    _wrap_function(rec, repro.runner.pool, "execute_spec",
                   "runner.execute_plain", _spec_attrs)
    _wrap_function(rec, repro.runner.pool, "execute_spec_metrics",
                   "runner.execute_metrics", _spec_attrs)
    _wrap_function(rec, repro.runner.pool, "map_specs",
                   "runner.map_specs")
    _wrap_function(rec, repro.runner.sweep, "run_sweep",
                   "runner.run_sweep")
    _wrap_function(rec, repro.dse.objectives, "extract_objectives",
                   "dse.objectives")
    _wrap_method(rec, repro.dse.Evaluator, "evaluate", "dse.evaluate")
    _wrap_method(rec, repro.dse.Evaluator, "baseline_stats",
                 "dse.baseline")
    _wrap_method(rec, JsonlWal, "append", "wal.append")
    _wrap_function(rec, repro.faults, "run_protection_matrix",
                   "faults.matrix")
    _wrap_function(rec, repro.faults, "run_campaign", "faults.campaign")


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def self_times(spans: Sequence[list]) -> List[float]:
    """Self time (ns) of every dumped span: its duration minus the
    durations of its direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100); 0 if empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[
        int(q) - 1]


def layer_metrics(spans: Sequence[list]) -> Dict[str, float]:
    """Per-layer metrics of one pass's dumped spans (times in s)."""
    selfs = self_times(spans)
    out: Dict[str, float] = {m: 0.0 for m in SELF_TIME_METRICS.values()}
    out.update({m: 0 for m in CALL_METRICS.values()})
    out.update({m: 0 for m in EXACT_COUNTS.values()})
    plain_ns = plain_cycles = hits = 0
    for s, self_ns in zip(spans, selfs):
        name, attrs = s[0], s[5] or {}
        if name in SELF_TIME_METRICS:
            out[SELF_TIME_METRICS[name]] += self_ns / 1e9
        if name in CALL_METRICS:
            out[CALL_METRICS[name]] += 1
        if "cycles" in attrs:
            for key, metric in EXACT_COUNTS.items():
                out[metric] += attrs[key]
            if name == "sim.pipeline.simulate":
                plain_ns += s[2] - s[1]
                plain_cycles += attrs["cycles"]
        if name == "runner.cache.get" and attrs.get("hit"):
            hits += 1
    out["sim.pipeline.host_ns_per_cycle"] = (
        plain_ns / plain_cycles if plain_cycles else 0.0)
    gets = out["runner.cache.get_calls"]
    out["runner.cache.hit_ratio"] = hits / gets if gets else 0.0
    return out


def asbr_point_ms(spans: Sequence[list]) -> List[float]:
    """Latency (ms) of every ASBR design point a DSE pass executed: the
    runner execute spans below a ``dse.*`` span.  Non-ASBR points skip
    the profiling passes and form a cheaper cost class, so they are
    left out to keep the percentiles inside one class."""
    out = []
    for s in spans:
        if s[0] in ("runner.execute_plain", "runner.execute_metrics") \
                and (s[5] or {}).get("asbr") \
                and _has_ancestor(spans, s, "dse."):
            out.append((s[2] - s[1]) / 1e6)
    return out


def injection_ms(spans: Sequence[list]) -> List[float]:
    """Latency (ms) of every per-site fault replay (one cost class)."""
    return [(s[2] - s[1]) / 1e6 for s in spans
            if s[0] == "faults.injected_sim" and (s[5] or {}).get(
                "per_site")]


def faults_context_s(spans: Sequence[list]) -> float:
    """Time ``run_protection_matrix`` spends outside its campaigns:
    building the shared context (profile, selection, fault-free
    reference run, site enumeration and plan)."""
    total = 0
    for i, s in enumerate(spans):
        if s[0] == "faults.matrix":
            total += s[2] - s[1]
            total -= sum(c[2] - c[1] for c in spans
                         if c[3] == i and c[0] == "faults.campaign")
    return total / 1e9


def _has_ancestor(spans, span, prefix: str) -> bool:
    parent = span[3]
    while parent >= 0:
        if spans[parent][0].startswith(prefix):
            return True
        parent = spans[parent][3]
    return False


def attributed_ns(spans: Sequence[list]) -> int:
    """Wall time covered by top-level layer spans (children nest inside
    their parents, so the roots alone cover every named layer)."""
    return sum(s[2] - s[1] for s in spans if s[3] < 0)
