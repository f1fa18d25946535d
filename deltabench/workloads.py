"""The three workloads: ``reproduce``, ``ingest`` and ``history``.

Each workload has the same shape:

* ``setup(seed, work)`` makes the inputs from the seed (timed, repeated
  for ``setup_s``);
* ``references(state)`` computes what each operation must return, by a
  path that skips the layer under test (untimed, once);
* ``run_pass(state, refs, pause)`` is one timed pass from inputs to a
  checked result; ``pause``, when given, runs between its operations
  and its time is left out of the pass.  ``warm_up(state, refs)`` runs
  the pass's code once, untimed, first;
* ``describe(state)`` records the input size next to every run.

All of them run in this one process with ``workers=1, jobs=1`` passed
explicitly, so changing a default or deleting a fan-out cannot change
what they measure.
"""

from __future__ import annotations

import bisect
import hashlib
import operator
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import repro.datasets as datasets
import repro.pipeline.extract as extract
import repro.replay as replay
import repro.results as results
import repro.syslog.writer as writer
from harness import SRC, Ops, PassResult, Pause, clock, result_digest
from layers import EXPERIMENT_IDS
from repro.core.parsing import RawXidRecord
from repro.experiments import EXPERIMENTS
from repro.pipeline import FileSetSource
from repro.session import RunConfig, Session
from repro.store import MATCH_ALL, EventStore, Query, gpu_serial

#: CI's paper-fidelity gate: ``verify --scale 0.05 --tolerance-scale 2``.
VERIFY_SCALE = 0.05
TOLERANCE_SCALE = 2.0
#: A dataset just large enough to run every experiment's code once.
WARM_UP_SCALE = 0.002
#: Queries ``history`` runs untimed before its first pass.
WARM_UP_QUERIES = 20
#: ``history`` pauses before every this many queries.
PAUSE_QUERIES = 100
#: Observation-window scale the ``ingest`` and ``history`` dumps are
#: synthesized at.
SCALE = 0.015
#: XID records in every log dump (see ``_write_dump``); seeds 1-12 hold
#: 92,000-183,000 at ``SCALE``.
DUMP_RECORDS = 80_000

HOUR = 3600.0
DAY = 86_400.0


def _config(scale: float, seed: int, **paths) -> RunConfig:
    return RunConfig(scale=scale, seed=seed, workers=1, jobs=1, **paths)


def _run_experiments(
    session: Session, ids: Tuple[str, ...], ops: Ops,
    references: Optional[Dict[str, str]], pause: Optional[Pause],
) -> Tuple[List, float]:
    """``Session.run`` over ``ids`` in order, which is what ``run_many``
    does with ``jobs=1``; each experiment is one operation, with
    ``pause`` before it.  Returns the results and the paused seconds."""
    outcomes = []
    paused = 0.0
    for identifier in ids:
        if pause is not None:
            paused += pause()
        with ops.guard(identifier):
            outcome = session.run(identifier)
            ops.record(identifier, result_digest(outcome),
                       None if references is None else references[identifier])
            outcomes.append(outcome)
    return outcomes, paused


# ----------------------------------------------------------------------
# reproduce
# ----------------------------------------------------------------------


@dataclass
class ReproduceState:
    seed: int
    xid_records: int = 0


class Reproduce:
    """The paper-fidelity path ``repro-delta verify`` and CI run.

    A pass builds a fresh ``Session``, runs the 15 experiments in it
    (the substrate synthesizes the dataset on first use) and
    gates the verified ones with ``verify_results`` at CI's tolerance.
    Set-up is the package import a cold ``repro-delta`` process pays.
    """

    name = "reproduce"
    scale = VERIFY_SCALE

    def setup(self, seed: int, work: Path) -> ReproduceState:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        subprocess.run(
            [sys.executable, "-c",
             "import repro.session, repro.experiments, repro.results"],
            env=env, check=True, cwd=work,
        )
        return ReproduceState(seed)

    def references(self, state: ReproduceState) -> Dict[str, str]:
        # The reference is the paper itself: every verified metric must
        # land in its tolerance band (see ``run_pass``).
        return {}

    def warm_up(self, state: ReproduceState, refs: Dict[str, str]) -> None:
        """Run every experiment once on a tiny dataset (outputs dropped)."""
        Session(_config(WARM_UP_SCALE, state.seed)).run_many(EXPERIMENT_IDS)

    def run_pass(self, state: ReproduceState, refs: Dict[str, str],
                 pause: Optional[Pause] = None) -> PassResult:
        ops = Ops()
        verified = {i for i in EXPERIMENT_IDS if EXPERIMENTS[i].verified}
        start = clock()
        session = Session(_config(self.scale, state.seed))
        outcomes, paused = _run_experiments(session, EXPERIMENT_IDS, ops, None, pause)
        report = results.verify_results(
            [r for r in outcomes if r.experiment_id in verified],
            tolerance_scale=TOLERANCE_SCALE,
        )
        wall = clock() - start - paused
        state.xid_records = len(session.study.records)
        for check in report.checks:
            ops.attempted += 1
            ops.outputs[f"check:{check.experiment_id}:{check.metric}"] = check.status
            if check.status == "fail":
                ops.misses += 1
                ops.fail(f"verify miss {check.experiment_id}.{check.metric}: "
                         f"{check.measured:g} outside {check.band}")
        return PassResult(wall, ops)

    def describe(self, state: ReproduceState) -> Dict[str, object]:
        return {"scale": self.scale, "seed": state.seed,
                "experiments": len(EXPERIMENT_IDS),
                "xid_records": state.xid_records}


# ----------------------------------------------------------------------
# ingest
# ----------------------------------------------------------------------

INGEST_IDS = ("table1", "fig5", "fig6", "fig7", "sec4.2iii", "sec5.5")


#: Width of the ISO timestamp that starts every syslog line.
_STAMP = len("2022-03-14T02:11:09.113")


@dataclass
class DumpState:
    """A log dump on disk: per-node logs plus ``slurm.jsonl``."""

    seed: int
    dataset: Path
    store: Path


def _write_dump(seed: int, scale: float, n_records: int, work: Path) -> Path:
    """Write the seed's first ``n_records`` XID records as a log dump.

    How many lines a dataset holds swings about 2x across seeds at one
    scale, with the bursts of a few offender GPUs, so a dump is cut at a
    fixed record count (noise lines up to the same instant included): a
    stated input size for every seed.  The dump is made in a child
    interpreter: the dataset it is cut from is up to 2.3x its size, and
    ``peak_rss_mb`` is the memory of handling the dump, not of making it.
    """
    target = work / "dataset"
    shutil.rmtree(target, ignore_errors=True)
    subprocess.run(
        [sys.executable, __file__, str(seed), repr(scale), str(n_records),
         str(target)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), check=True,
    )
    return target


def _make_dump(seed: int, scale: float, n_records: int, target: Path) -> None:
    dataset = datasets.synthesize_delta(scale=scale, seed=seed)
    lines = list(dataset.log_lines())
    stamps = sorted(line[:_STAMP] for line in lines if "NVRM: Xid" in line)
    if len(stamps) > n_records:
        cutoff = stamps[n_records - 1]
        lines = [line for line in lines if line[:_STAMP] <= cutoff]
    writer.write_node_logs(lines, target / "logs")
    dataset.save_slurm_db(target / "slurm.jsonl")


def _dump_record(directory: Path) -> Dict[str, object]:
    files = sorted((directory / "logs").iterdir())
    return {"log_files": len(files),
            "log_bytes": sum(f.stat().st_size for f in files)}


class Ingest:
    """A first look at a log dump: ``study --dataset D --store S``.

    Each pass opens a ``Session`` on the dump with an empty store, so
    Stage I runs from the files, the store is written, and the six
    experiments read it back.  The reference is the same study over the
    raw logs without a store.
    """

    name = "ingest"
    scale = SCALE
    dump_records = DUMP_RECORDS

    def setup(self, seed: int, work: Path) -> DumpState:
        dataset = _write_dump(seed, self.scale, self.dump_records, work)
        return DumpState(seed, dataset, work / "store")

    def references(self, state: DumpState) -> Dict[str, str]:
        session = Session(_config(self.scale, state.seed, dataset=state.dataset))
        return {r.experiment_id: result_digest(r)
                for r in session.run_many(INGEST_IDS)}

    def warm_up(self, state: DumpState, refs: Dict[str, str]) -> None:
        self.run_pass(state, refs)

    def run_pass(self, state: DumpState, refs: Dict[str, str],
                 pause: Optional[Pause] = None) -> PassResult:
        shutil.rmtree(state.store, ignore_errors=True)
        ops = Ops()
        start = clock()
        session = Session(_config(self.scale, state.seed,
                                  dataset=state.dataset, store=state.store))
        _, paused = _run_experiments(session, INGEST_IDS, ops, refs, pause)
        return PassResult(clock() - start - paused, ops)

    def describe(self, state: DumpState) -> Dict[str, object]:
        record: Dict[str, object] = {"scale": self.scale, "seed": state.seed}
        record.update(_dump_record(state.dataset))
        if EventStore.exists(state.store):
            store = EventStore.open(state.store)
            record.update(xid_records=store.n_records,
                          store_segments=store.n_segments)
        return record


# ----------------------------------------------------------------------
# history
# ----------------------------------------------------------------------

_ROW = operator.attrgetter("time", "node_id", "pci_bus", "xid", "message", "pid")


def rows_digest(records: List[RawXidRecord]) -> str:
    """Order-sensitive digest of a record sequence, every field included
    (``hash`` is per-process, and references live in the same process)."""
    return f"{len(records)}:{hash(tuple(map(_ROW, records))):x}"


@dataclass
class HistoryState:
    seed: int
    dataset: Path
    records: List[RawXidRecord]
    store: EventStore


@dataclass(frozen=True)
class HistoryQuery:
    shape: str
    query: Query


class History:
    """Operators querying and backtesting stored history.

    Set-up writes the dump, extracts it and builds the ``EventStore``
    from the merged record stream (the layout ``ingest`` writes).  A
    pass is one client's closed loop over 500 seeded pushdown queries,
    each result materialized, then one ``run_backtest`` over the whole
    store.  References: a filter over the extracted record list, and the
    backtest over that list.
    """

    name = "history"
    scale = SCALE
    dump_records = DUMP_RECORDS
    #: Queries per pass by shape: mostly drill-downs into one GPU or one
    #: node, with a few fleet-wide scans (the latency tail).
    mix = (("gpu", 238), ("node_week", 238), ("xid", 12), ("window_3d", 12))
    #: Query latencies the traced run collects from its untraced passes
    #: (two or more), so p99 has ten samples beyond it.
    latency_samples = 1000

    def setup(self, seed: int, work: Path) -> HistoryState:
        dataset = _write_dump(seed, self.scale, self.dump_records, work)
        records = extract.extract_records(FileSetSource(dataset / "logs"), workers=1)
        store_dir = work / "store"
        shutil.rmtree(store_dir, ignore_errors=True)
        store = EventStore.create(store_dir, meta={"scale": self.scale, "seed": seed})
        store.append(records)
        return HistoryState(seed, dataset, records, store)

    # -- queries and their references ------------------------------------

    def queries(self, state: HistoryState) -> List[HistoryQuery]:
        """The seeded query list: ``mix`` queries of each shape, shuffled.

        Targets are dealt round-robin from a seeded shuffle (GPUs, nodes,
        XIDs) and window starts are spread evenly over the history.  A
        few offender GPUs and one XID hold nearly every record, so plain
        random draws would make the number of heavy queries per pass a
        coin toss.
        """
        rng = random.Random(f"deltabench-history-{state.seed}")
        records = state.records
        first, last = records[0].time, records[-1].time
        by_gpu: Dict[Tuple[str, str], List[RawXidRecord]] = {}
        for record in records:
            by_gpu.setdefault(record.gpu_key, []).append(record)
        targets = {
            "gpu": sorted(by_gpu),
            "node_week": sorted({r.node_id for r in records}),
            "xid": sorted({r.xid for r in records}),
        }
        for values in targets.values():
            rng.shuffle(values)

        def start(number: int, count: int, width: float) -> float:
            slot = (number + rng.random()) / count
            return first + slot * max(0.0, last - first - width)

        out: List[HistoryQuery] = []
        for shape, count in self.mix:
            for number in range(count):
                if shape == "gpu":
                    # One GPU around one of its own errors.
                    gpu = targets["gpu"][number % len(targets["gpu"])]
                    anchor = rng.choice(by_gpu[gpu])
                    query = Query(
                        time_range=(anchor.time - 6 * HOUR, anchor.time + 6 * HOUR),
                        serials={gpu_serial(*gpu)},
                    )
                elif shape == "node_week":
                    begin = start(number, count, 7 * DAY)
                    node = targets["node_week"][number % len(targets["node_week"])]
                    query = Query(time_range=(begin, begin + 7 * DAY), nodes={node})
                elif shape == "xid":
                    query = Query(xids={targets["xid"][number % len(targets["xid"])]})
                else:
                    begin = start(number, count, 3 * DAY)
                    query = Query(time_range=(begin, begin + 3 * DAY))
                out.append(HistoryQuery(shape, query))
        rng.shuffle(out)
        return out

    @staticmethod
    def expected(index: "_Index", query: Query) -> List[RawXidRecord]:
        """The reference answer: a filter over the extracted list."""
        if query.serials is not None:
            (serial,) = query.serials
            times, rows = index.by_gpu[serial]
        elif query.nodes is not None:
            (node,) = query.nodes
            times, rows = index.by_node[node]
        elif query.xids is not None:
            (xid,) = query.xids
            return list(index.by_xid[xid][1])
        else:
            times, rows = index.all
        lo, hi = query.time_range
        return rows[bisect.bisect_left(times, lo):bisect.bisect_right(times, hi)]

    def references(self, state: HistoryState) -> Dict[str, object]:
        index = _Index(state.records)
        plan = self.queries(state)
        digests = [rows_digest(self.expected(index, q.query)) for q in plan]
        reference = replay.run_backtest(lambda: iter(state.records),
                                        source_fingerprint=state.store.content_hash())
        return {"queries": plan, "digests": digests,
                "backtest": _scorecard(reference)}

    def warm_up(self, state: HistoryState, refs: Dict[str, object]) -> None:
        """A few queries; ``references`` already ran the backtest code."""
        plan: List[HistoryQuery] = refs["queries"]  # type: ignore[assignment]
        for item in plan[:WARM_UP_QUERIES]:
            list(state.store.query(item.query))

    def run_pass(self, state: HistoryState, refs: Dict[str, object],
                 pause: Optional[Pause] = None) -> PassResult:
        # The pass time is the client's waiting time: queries and the
        # backtest, not the digests that check them (nor ``pause``).
        ops = Ops()
        busy = 0.0
        query_ms: List[float] = []
        plan: List[HistoryQuery] = refs["queries"]  # type: ignore[assignment]
        digests: List[str] = refs["digests"]  # type: ignore[assignment]
        store = state.store
        for number, (item, expected) in enumerate(zip(plan, digests)):
            if pause is not None and number % PAUSE_QUERIES == 0:
                pause()
            op_id = f"query{number}:{item.shape}"
            with ops.guard(op_id):
                start = clock()
                found = list(store.query(item.query))
                seconds = clock() - start
                busy += seconds
                query_ms.append(seconds * 1000)
                ops.record(op_id, rows_digest(found), expected)
        if pause is not None:
            pause()
        with ops.guard("backtest"):
            fingerprint = store.content_hash()
            start = clock()
            scorecard = replay.run_backtest(lambda: store.query(MATCH_ALL),
                                            source_fingerprint=fingerprint)
            busy += clock() - start
            ops.record("backtest", _scorecard(scorecard),
                       refs["backtest"])  # type: ignore[arg-type]
        return PassResult(busy, ops, query_ms)

    def describe(self, state: HistoryState) -> Dict[str, object]:
        record: Dict[str, object] = {"scale": self.scale, "seed": state.seed,
                                     "queries": sum(n for _, n in self.mix)}
        record.update(_dump_record(state.dataset))
        record.update(xid_records=len(state.records),
                      store_segments=state.store.n_segments)
        return record


def _scorecard(result) -> str:
    """Digest of the backtest scorecard's bytes."""
    return hashlib.sha256(result.render_json().encode("utf-8")).hexdigest()[:16]


class _Index:
    """The extracted list keyed by GPU, node and XID (time order kept)."""

    def __init__(self, records: List[RawXidRecord]) -> None:
        def keyed(key) -> Dict[object, Tuple[List[float], List[RawXidRecord]]]:
            groups: Dict[object, Tuple[List[float], List[RawXidRecord]]] = {}
            for record in records:
                times, rows = groups.setdefault(key(record), ([], []))
                times.append(record.time)
                rows.append(record)
            return groups

        self.all = ([r.time for r in records], records)
        self.by_gpu = keyed(lambda r: gpu_serial(r.node_id, r.pci_bus))
        self.by_node = keyed(operator.attrgetter("node_id"))
        self.by_xid = keyed(operator.attrgetter("xid"))


WORKLOADS = {w.name: w for w in (Reproduce(), Ingest(), History())}


if __name__ == "__main__":
    # ``_write_dump``'s child: SEED SCALE N_RECORDS TARGET.
    _make_dump(int(sys.argv[1]), float(sys.argv[2]), int(sys.argv[3]),
               Path(sys.argv[4]))
