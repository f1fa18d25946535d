"""Shared plumbing: where things live, the host record, op bookkeeping.

Everything the three workloads share and nothing they differ in: the
checkout layout (``src/`` is put on ``sys.path`` here, so importing this
module is what makes ``repro`` importable), the per-run work directory,
the host/input record printed with every run, the reference job that
tracks the host's speed, output digests, and the ``Ops`` tally behind
``attempted`` / ``failed``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for datasets, stores and traces (git-ignored).
WORK_ROOT = ROOT / ".deltabench"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def work_dir(workload: str, seed: int, trace: bool) -> Path:
    """A fresh per-run directory (one per process, so runs never collide)."""
    path = WORK_ROOT / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=False)
    return path


def clock() -> float:
    return time.perf_counter()


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MB (10^6 bytes)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib * 1024 / 1e6


def result_digest(result) -> str:
    """Digest of an ``ExperimentResult``'s metrics and tables (no manifest:
    it names the wiring — store hash, dataset label — not the outcome)."""
    payload = result.to_dict()
    payload.pop("manifest", None)
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def host_record() -> Dict[str, object]:
    """Who measured: numbers from different hosts must never be mixed."""
    import numpy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method, interpolating)."""
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


#: Inputs of the reference job, built once per process.
_REFERENCE_LINES = [
    f"2022-03-14T02:11:{i % 60:02d}.113 gpub{i % 200:03d} kernel: NVRM: Xid "
    f"(PCI:0000:{i % 8:02x}:00): {i % 120}, pid={i}"
    for i in range(10_000)
]
_REFERENCE_KEYS = [((i * 7_919) % 50_021) / 50_021 for i in range(25_000)]


def reference_job() -> int:
    """A fixed slice of work of each kind the program does, in about
    equal parts: parse log-like lines into a dict; build, sort and group
    tuples; allocate and drop many small objects; turn array columns
    into Python lists; fill and sum arrays.  A shared host slows these
    kinds by different amounts (the memory-heavy ones most), so the job
    mixes them.  It imports nothing from the program, so no change to
    the program can change how long it takes."""
    import numpy

    counts: Dict[Tuple[str, str], int] = {}
    for line in _REFERENCE_LINES:
        parts = line.split()
        key = (parts[1], parts[4])
        counts[key] = counts.get(key, 0) + int(parts[-1].split("=")[1])
    rows = sorted((key, i, str(i)) for i, key in enumerate(_REFERENCE_KEYS))
    groups: Dict[int, List[str]] = {}
    for _, i, text in rows[::3]:
        groups.setdefault(i % 1_000, []).append(text)
    for _ in range(2):
        pairs = [(i, float(i)) for i in range(100_000)]
        del pairs
    column = numpy.arange(300_000, dtype=numpy.float64)
    for _ in range(4):
        values = column.tolist()
        del values
    total = 0.0
    for _ in range(24):
        total += float(numpy.ones(1_000_000).sum())
    return len(counts) + len(groups) + int(total)


class HostSpeed:
    """How fast this host runs the reference job, sampled all through a run.

    The host's cores are shared: the same pass takes up to 1.5x longer
    for a minute at a time when neighbours are busy.  Timing the
    reference job in the same process between passes and between a
    pass's operations, for a fixed share of the time in between, gives a
    per-run unit that slows down with the host; pass time over that unit
    keeps less of the drift.
    """

    #: Reference-job time kept at this share of the time between calls.
    SHARE = 0.15

    def __init__(self) -> None:
        self.jobs = 0
        self.seconds = 0.0
        self._owed = 0.0
        self._since: Optional[float] = None

    def keep_up(self) -> float:
        """Time the job for at least ``SHARE`` of the time since the last
        call (once on the first); return the seconds spent in here.

        One untimed job goes first, so the timed ones find their own data
        in the caches, whatever the pass left there; and the collector is
        off, or the job's time would grow with whatever the program keeps
        alive.
        """
        entered = clock()
        if self._since is not None:
            self._owed += self.SHARE * (entered - self._since)
        gc.disable()
        try:
            reference_job()
            while self.jobs == 0 or self._owed > 0:
                start = clock()
                reference_job()
                took = clock() - start
                self.seconds += took
                self._owed -= took
                self.jobs += 1
        finally:
            gc.enable()
        self._owed = max(self._owed, 0.0)
        self._since = clock()
        return self._since - entered

    @property
    def unit_s(self) -> float:
        """Mean time of one reference job over the run."""
        return self.seconds / self.jobs


@dataclass
class Ops:
    """One pass's operations: output digests and failures.

    An operation fails when it raises or when its output differs from
    its reference.  ``misses`` are paper-fidelity checks that fell
    outside their band: failed operations, but not wrong outputs.
    """

    outputs: Dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    misses: int = 0
    problems: List[str] = field(default_factory=list)

    def record(self, op_id: str, output: str, reference: str | None) -> None:
        self.attempted += 1
        self.outputs[op_id] = output
        if reference is not None and output != reference:
            self.fail(f"{op_id}: output {output} != reference {reference}")

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    @contextmanager
    def guard(self, op_id: str) -> Iterator[None]:
        """Count an exception as one failed operation instead of dying."""
        try:
            yield
        except Exception as exc:  # noqa: BLE001 — any raise is a failed op
            self.attempted += 1
            self.fail(f"{op_id}: raised {type(exc).__name__}: {exc}")


#: Called by a pass between its operations; returns the seconds it took,
#: which the pass leaves out of its time.
Pause = Callable[[], float]


@dataclass
class PassResult:
    """One timed pass over a workload's prepared inputs."""

    wall_s: float
    ops: Ops
    #: Latency of each pushdown query (``history`` only).
    query_ms: List[float] = field(default_factory=list)
