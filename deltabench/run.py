"""Benchmark for the Delta reproduction: one workload per invocation.

    python3 deltabench/run.py --workload reproduce --seed 7 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off:
set-up runs ``SETUP_REPEATS`` times (``setup_s`` is the median), an
untimed warm-up follows, then timed passes repeat until
``--seconds`` have elapsed, with the reference job timed between them
and between a pass's operations, outside the pass time (``wall_rel`` is
the mean pass time over the mean reference-job time;
the record line keeps the pass times in seconds).  ``--trace 1``
gives the per-layer metrics instead: one traced set-up, then untraced
and traced passes alternate, and the traced outputs must equal the
untraced ones.  Either way the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line before
it records the host and the input.  Runs also append that record to
``.deltabench/runs.jsonl``.

Everything runs in this one process (plus one short interpreter start
for the ``reproduce`` set-up) and stays inside the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import sys
from pathlib import Path
from typing import Dict, List, Optional

#: Set-up repetitions behind the ``setup_s`` median.
SETUP_REPEATS = 3
#: Repetitions of the raw-read ceiling measurement (median reported).
RAW_READ_REPEATS = 3


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("reproduce", "ingest", "history"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def raw_read_mb_per_s(log_dir: Path) -> float:
    """The Stage-I ceiling: a plain read and line split of the same files."""
    from harness import clock, median

    files = sorted(log_dir.iterdir())
    rates = []
    for _ in range(RAW_READ_REPEATS):
        total = 0
        start = clock()
        for path in files:
            data = path.read_bytes()
            total += len(data)
            data.split(b"\n")
        rates.append(total / 1e6 / (clock() - start))
    return median(rates)


class Verdict:
    """Operation totals over every pass, plus the cross-pass identity check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: List[str] = []
        self._baseline: Optional[Dict[str, str]] = None

    def add(self, result) -> None:
        ops = result.ops
        self.attempted += ops.attempted
        self.failed += ops.failed
        # Paper-fidelity misses fail an operation; anything else that
        # failed means an output was wrong (or the program raised).
        self.wrong += ops.failed - ops.misses
        self.problems.extend(ops.problems)
        if self._baseline is None:
            self._baseline = ops.outputs
            return
        # Same inputs, same outputs: every pass (traced or not) must
        # reproduce the first one exactly.
        for op_id in sorted(set(self._baseline) | set(ops.outputs)):
            if self._baseline.get(op_id) != ops.outputs.get(op_id):
                self.failed += 1
                self.wrong += 1
                self.problems.append(f"{op_id}: output differs between passes")

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.wrong == 0


def measure(workload, seed: int, seconds: float, work: Path):
    """``--trace 0``: the end-to-end metrics."""
    from harness import HostSpeed, clock, median, peak_rss_mb

    setup_times = []
    state = None
    for _ in range(SETUP_REPEATS):
        state = None
        gc.collect()
        start = clock()
        state = workload.setup(seed, work)
        setup_times.append(clock() - start)
    refs = workload.references(state)
    workload.warm_up(state, refs)

    verdict = Verdict()
    walls: List[float] = []
    speed = HostSpeed()
    speed.keep_up()
    began = clock()
    while not walls or clock() - began < seconds:
        gc.collect()
        result = workload.run_pass(state, refs, speed.keep_up)
        verdict.add(result)
        walls.append(result.wall_s)
        speed.keep_up()

    metrics = {
        # Time-weighted over the whole run on both sides: a median of a
        # few passes would read the host's speed at one moment.
        "wall_rel": (sum(walls) / len(walls) / speed.unit_s, "x"),
        "setup_s": (median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ok_share": ((verdict.attempted - verdict.failed) / verdict.attempted, "ratio"),
    }
    extra = {"passes": len(walls), "operations": verdict.attempted,
             "wall_s": walls, "reference_job_s": speed.unit_s,
             "reference_jobs": speed.jobs, "setup_runs_s": setup_times}
    return state, verdict, metrics, extra


def measure_layers(workload, seed: int, seconds: float, work: Path):
    """``--trace 1``: the per-layer metrics, from benchmark-owned spans."""
    from harness import clock, median
    from layers import PER_LAYER, combine, per_layer_metrics, probes_installed, read_layers
    from repro import obs

    traces = work / "traces"

    def traced(label: str, call):
        with probes_installed():
            obs.activate(traces / label, label="deltabench")
            try:
                return call()
            finally:
                obs.deactivate()

    state = traced("setup", lambda: workload.setup(seed, work))
    refs = workload.references(state)
    logs = getattr(state, "dataset", None)
    raw_read = raw_read_mb_per_s(logs / "logs") if logs is not None else 0.0

    # One-time costs (lazy imports, first allocations) must land on
    # neither side of the traced/untraced ratio.
    workload.warm_up(state, refs)
    verdict = Verdict()
    plain: List[float] = []
    with_trace: List[float] = []
    query_ms: List[float] = []
    latency_samples = getattr(workload, "latency_samples", 0)
    began = clock()
    while (not plain or not with_trace or clock() - began < seconds
           or len(query_ms) < latency_samples):
        gc.collect()
        if len(plain) <= len(with_trace):
            result = workload.run_pass(state, refs)
            plain.append(result.wall_s)
            query_ms.extend(result.query_ms)
        else:
            label = f"pass{len(with_trace)}"
            result = traced(label, lambda: workload.run_pass(state, refs))
            with_trace.append(result.wall_s)
        verdict.add(result)

    sample = combine(
        read_layers(traces / "setup"),
        [read_layers(traces / f"pass{i}") for i in range(len(with_trace))],
    )
    values = per_layer_metrics(
        sample,
        raw_read_mb_per_s=raw_read,
        query_ms=query_ms,
        trace_overhead=median(with_trace) / median(plain) - 1.0,
    )
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
    extra = {"passes_untraced": len(plain), "passes_traced": len(with_trace)}
    return state, verdict, metrics, extra


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("deltabench: --seconds must be positive", file=sys.stderr)
        return 2
    import harness

    if not (harness.SRC / "repro" / "__init__.py").is_file():
        print(f"deltabench: no program under test at {harness.SRC}/repro; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    work = harness.work_dir(workload.name, args.seed, bool(args.trace))
    try:
        run = measure_layers if args.trace else measure
        state, verdict, metrics, extra = run(workload, args.seed, args.seconds, work)
        record = {
            "workload": workload.name,
            "seed": args.seed,
            "trace": args.trace,
            "seconds": args.seconds,
            "host": harness.host_record(),
            "input": workload.describe(state),
            "run": extra,
            "problems": verdict.problems[:20],
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    with open(harness.WORK_ROOT / "runs.jsonl", "a", encoding="utf-8") as ledger:
        ledger.write(json.dumps(dict(record, metrics=metrics)) + "\n")
    for problem in verdict.problems[:20]:
        print(f"deltabench: {problem}", file=sys.stderr)
    print("deltabench: " + json.dumps(record))
    print(json.dumps({
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
