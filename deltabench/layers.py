"""Per-layer numbers for the traced run, measured from outside the program.

Each probe wraps one layer's public entry point in a benchmark-owned
``repro.obs`` span (named ``deltabench:<layer>``) for the duration of a
traced pass, then puts the original back.  A layer's busy time is the
self time of its spans: duration minus the part covered by *other
benchmark spans* nested inside.  Spans the program emits itself are
skipped when walking up to the nearest benchmark ancestor, so moving or
adding program spans later cannot shift these numbers.

The wrappers hand arguments and results through unchanged.  Entry points
that return a lazy iterator (``drain=True``) are drained inside their
span and re-yielded from the list, so the span measures the layer's own
work rather than whatever its consumer does between items.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from harness import median, percentile
from repro import obs

SPAN_PREFIX = "deltabench:"

#: The 15 experiments the reproduce workload runs, fixed here so that a
#: newly registered experiment does not silently change the workload.
EXPERIMENT_IDS = (
    "fig5", "fig6", "fig7", "fig9", "pipeline.parity", "sec4.2iii",
    "sec5.4", "sec5.5", "sec6", "sec7", "sim.fleets", "sim.policies",
    "table1", "table2", "table3",
)

Counts = Callable[[tuple, dict, object], Dict[str, float]]


@dataclass(frozen=True)
class Probe:
    """``owner`` is ``"module"`` (a function) or ``"module:Class"``."""

    owner: str
    attr: str
    layer: Union[str, Callable[[tuple, dict], str]]
    counts: Optional[Counts] = None
    drain: bool = False


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _extract_counts(args, kwargs, records) -> Dict[str, float]:
    from repro.store import StoreSource

    source = _arg(args, kwargs, 0, "source")
    if isinstance(source, StoreSource):
        # A store read-back: its rows count as ``store.rows_returned``.
        return {}
    paths = getattr(source, "paths", None) or ()
    return {
        "pipeline.records": len(records),
        "pipeline.file_bytes": sum(Path(p).stat().st_size for p in paths),
    }


def _plan_counts(args, kwargs, result) -> Dict[str, float]:
    candidates, pruned = result
    return {
        "store.segments_planned": len(candidates) + pruned,
        "store.segments_pruned": pruned,
    }


def _verify_counts(args, kwargs, report) -> Dict[str, float]:
    return {
        "results.checks": len(report.checks),
        "results.checks_failed": report.n_fail,
        "results.checks_skipped": report.n_skip,
    }


def _experiment_layer(args, kwargs) -> str:
    return f"experiments.{_arg(args, kwargs, 0, 'identifier')}"


PROBES: Tuple[Probe, ...] = (
    Probe("repro.slurm.workload:WorkloadModel", "generate", "slurm.workload"),
    Probe("repro.slurm.scheduler:GpuScheduler", "schedule", "slurm.schedule",
          counts=lambda a, k, r: {"slurm.jobs_scheduled": len(r.jobs)}),
    Probe("repro.slurm.failures:FailureCoupler", "couple", "slurm.couple"),
    Probe("repro.faults.injector:FaultInjector", "generate", "faults.inject",
          counts=lambda a, k, r: {"faults.events": len(r.events)}),
    Probe("repro.datasets.delta:DeltaDataset", "log_lines", "syslog.render",
          drain=True,
          counts=lambda a, k, r: {"syslog.lines": len(r),
                                  "syslog.rendered_bytes": sum(map(len, r)) + len(r)}),
    Probe("repro.syslog.writer", "write_node_logs", "syslog.write",
          counts=lambda a, k, r: {"syslog.bytes": sum(p.stat().st_size for p in r)}),
    Probe("repro.datasets.delta", "synthesize_delta", "datasets.synthesize"),
    Probe("repro.datasets.delta", "synthesize_h100", "datasets.synthesize"),
    Probe("repro.pipeline.extract", "iter_source_records", "pipeline.extract",
          drain=True, counts=_extract_counts),
    Probe("repro.pipeline.stages:VectorizedCoalesce", "run", "pipeline.coalesce",
          counts=lambda a, k, r: {"pipeline.coalesced_errors": r.n_errors}),
    Probe("repro.pipeline.stages:StreamingCoalesce", "run", "pipeline.coalesce",
          counts=lambda a, k, r: {"pipeline.coalesced_errors": r.n_errors}),
    Probe("repro.store.store:EventStore", "append", "store.append",
          counts=lambda a, k, r: {"store.segments_written": len(r),
                                  "store.bytes_written": sum(i.n_bytes for i in r)}),
    # Planning is part of answering a query; same layer name, so nesting
    # under ``query`` moves no time between layers.
    Probe("repro.store.store:EventStore", "plan", "store.query",
          counts=_plan_counts),
    Probe("repro.store.store:EventStore", "query", "store.query", drain=True,
          counts=lambda a, k, r: {"store.rows_returned": len(r)}),
    # Store-backed studies read segments through the pipeline source.
    Probe("repro.store.source:SegmentShard", "iter_records", "store.query",
          drain=True, counts=lambda a, k, r: {"store.rows_returned": len(r)}),
    Probe("repro.session.session:Session", "study", "session.study"),
    Probe("repro.experiments", "run_experiment", _experiment_layer),
    Probe("repro.results.verify", "verify_results", "results.verify",
          counts=_verify_counts),
    Probe("repro.sim.sweep", "run_sweep", "sim.sweep",
          counts=lambda a, k, r: {"sim.replicas": _arg(a, k, 0, "config").replicas}),
    Probe("repro.replay.engine:ReplayEngine", "replay", "replay.replay",
          counts=lambda a, k, r: {"replay.records": r.records,
                                  "replay.alerts": len(r.alerts)}),
    Probe("repro.replay.backtest", "run_backtest", "replay.score"),
)


def _wrap(probe: Probe, original: Callable) -> Callable:
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        layer = probe.layer if isinstance(probe.layer, str) else probe.layer(args, kwargs)
        with obs.span(SPAN_PREFIX + layer) as span:
            result = original(*args, **kwargs)
            if probe.drain:
                result = list(result)
            if probe.counts is not None:
                for name, value in probe.counts(args, kwargs, result).items():
                    # Prefixed: program code may bump its own counters on
                    # whichever span is innermost, including this one.
                    span.add(SPAN_PREFIX + name, value)
        return iter(result) if probe.drain else result

    return wrapper


def _repro_modules() -> List[object]:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


@contextmanager
def probes_installed(probes: Tuple[Probe, ...] = PROBES) -> Iterator[None]:
    """Wrap every probe's entry point; restore the originals on exit.

    A module-level function is replaced wherever a ``repro`` module has
    bound it by name (``from x import f``); a method is replaced on its
    class.
    """
    undo: List[Tuple[object, str, object]] = []
    swapped: List[Tuple[str, object, object]] = []
    try:
        for probe in probes:
            module_name, _, class_name = probe.owner.partition(":")
            module = importlib.import_module(module_name)
            if class_name:
                cls = getattr(module, class_name)
                original = cls.__dict__[probe.attr]
                if isinstance(original, property):
                    wrapped = property(_wrap(probe, original.fget))
                else:
                    wrapped = _wrap(probe, original)
                setattr(cls, probe.attr, wrapped)
                undo.append((cls, probe.attr, original))
                continue
            original = getattr(module, probe.attr)
            wrapped = _wrap(probe, original)
            swapped.append((probe.attr, original, wrapped))
            for holder in _repro_modules():
                if holder.__dict__.get(probe.attr) is original:
                    setattr(holder, probe.attr, wrapped)
        yield
    finally:
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)
        # Rescan: a module imported while the probes were in place may
        # have bound a wrapper too.
        for attr, original, wrapped in swapped:
            for holder in _repro_modules():
                if holder.__dict__.get(attr) is wrapped:
                    setattr(holder, attr, original)


@dataclass
class LayerSample:
    """What one traced section spent per layer."""

    busy_s: Dict[str, float]
    total_s: Dict[str, float]
    counts: Dict[str, float]


def read_layers(trace_dir: Path) -> LayerSample:
    """Self time, total time and counters of the benchmark spans in a trace."""
    data = obs.read_trace_dir(trace_dir)
    if data.problems:
        raise RuntimeError(f"malformed trace records: {data.problems[:3]}")
    parents = {span["id"]: span.get("parent") for span in data.spans}
    ours = {s["id"]: s for s in data.spans if s["name"].startswith(SPAN_PREFIX)}

    covered: Dict[str, float] = defaultdict(float)
    for span in ours.values():
        ancestor = span.get("parent")
        while ancestor is not None and ancestor not in ours:
            ancestor = parents.get(ancestor)
        if ancestor is not None:
            covered[ancestor] += span["dur"]

    busy: Dict[str, float] = defaultdict(float)
    total: Dict[str, float] = defaultdict(float)
    counts: Dict[str, float] = defaultdict(float)
    for span_id, span in ours.items():
        layer = span["name"][len(SPAN_PREFIX):]
        busy[layer] += max(0.0, span["dur"] - covered[span_id])
        total[layer] += span["dur"]
        for name, value in (span.get("counters") or {}).items():
            if name.startswith(SPAN_PREFIX):
                counts[name[len(SPAN_PREFIX):]] += value
    return LayerSample(dict(busy), dict(total), dict(counts))


#: Busy-time metrics: (metric name, layer whose self time it reports).
_BUSY = (
    ("slurm.workload_s", "slurm.workload"),
    ("slurm.schedule_s", "slurm.schedule"),
    ("slurm.couple_s", "slurm.couple"),
    ("faults.inject_s", "faults.inject"),
    ("syslog.render_s", "syslog.render"),
    ("syslog.write_s", "syslog.write"),
    ("datasets.synthesize_s", "datasets.synthesize"),
    ("pipeline.extract_s", "pipeline.extract"),
    ("pipeline.coalesce_s", "pipeline.coalesce"),
    ("store.append_s", "store.append"),
    ("store.query_s", "store.query"),
    ("session.study_s", "session.study"),
    *((f"experiments.{i}_s", f"experiments.{i}") for i in EXPERIMENT_IDS),
    ("results.verify_s", "results.verify"),
    ("sim.sweep_s", "sim.sweep"),
    ("replay.replay_s", "replay.replay"),
    ("replay.score_s", "replay.score"),
)

_COUNTS = (
    "slurm.jobs_scheduled", "faults.events", "syslog.lines", "syslog.bytes",
    "pipeline.records", "pipeline.coalesced_errors",
    "store.segments_written", "store.bytes_written",
    "store.rows_returned", "store.segments_planned", "store.segments_pruned",
    "results.checks", "results.checks_failed", "results.checks_skipped",
    "sim.replicas", "replay.records", "replay.alerts",
)

#: Every per-layer metric with its unit, in reporting order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    *((name, "s") for name, _ in _BUSY),
    *((name, "count") for name in _COUNTS),
    ("pipeline.extract_mb_per_s", "MB/s"),
    ("pipeline.raw_read_mb_per_s", "MB/s"),
    ("store.query_p50_ms", "ms"),
    ("store.query_p99_ms", "ms"),
    ("replay.backtest_s", "s"),
    ("obs.trace_overhead", "ratio"),
)


def per_layer_metrics(
    sample: LayerSample,
    *,
    raw_read_mb_per_s: float,
    query_ms: List[float],
    trace_overhead: float,
) -> Dict[str, float]:
    """Fold a (set-up + pass) layer sample into the named metrics.

    ``query_ms`` are the pushdown-query latencies of the untraced passes
    (a client's view of the store, so tracing never inflates them).
    """
    values: Dict[str, float] = {}
    for name, layer in _BUSY:
        values[name] = sample.busy_s.get(layer, 0.0)
    for name in _COUNTS:
        values[name] = sample.counts.get(name, 0.0)
    # Stage I's input is the log files when it reads files, else the
    # lines rendered in memory (the reproduce path).
    text_bytes = (sample.counts.get("pipeline.file_bytes")
                  or sample.counts.get("syslog.rendered_bytes", 0.0))
    extract_s = values["pipeline.extract_s"]
    values["pipeline.extract_mb_per_s"] = (
        text_bytes / 1e6 / extract_s if extract_s > 0 else 0.0
    )
    values["pipeline.raw_read_mb_per_s"] = raw_read_mb_per_s
    values["store.query_p50_ms"] = median(query_ms) if query_ms else 0.0
    values["store.query_p99_ms"] = percentile(query_ms, 99) if query_ms else 0.0
    values["replay.backtest_s"] = sample.total_s.get("replay.score", 0.0)
    values["obs.trace_overhead"] = trace_overhead
    return values


def combine(setup: LayerSample, passes: List[LayerSample]) -> LayerSample:
    """Set-up once plus the per-key median over traced passes."""

    def merge(first: Dict[str, float], rest: List[Dict[str, float]]) -> Dict[str, float]:
        return {
            key: first.get(key, 0.0) + median([d.get(key, 0.0) for d in rest])
            for key in set(first).union(*rest)
        }

    return LayerSample(
        merge(setup.busy_s, [p.busy_s for p in passes]),
        merge(setup.total_s, [p.total_s for p in passes]),
        merge(setup.counts, [p.counts for p in passes]),
    )
