"""GPU scheduling: place the submission stream onto the cluster.

A deliberately simple earliest-available scheduler: each partition (a40 /
a100 / h100) is a pool of GPUs with release times; a job takes the earliest
``k`` GPUs, waiting if the pool is busy.  Draining is modelled through
*blackout intervals*: a GPU inside a blackout accepts no new placements but
jobs already running on it continue — exactly Slurm's drain semantics, which
the paper's recovery narrative (Figure 1) relies on.

The resulting :class:`Schedule` exposes an :class:`OccupancyIndex` used both
by the fault injector (busy/idle placement bias) and by the failure coupler
(which job was on a GPU when an error hit).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.cluster.inventory import ClusterInventory
from repro.cluster.node import NodeKind
from repro.slurm.job import GpuKey, JobRecord, JobSpec

Interval = Tuple[float, float]

#: Partition name -> node kinds backing it.
PARTITIONS: Dict[str, Tuple[NodeKind, ...]] = {
    "a40": (NodeKind.A40_X4,),
    "a100": (NodeKind.A100_X4, NodeKind.A100_X8),
    "h100": (NodeKind.GH200_X4,),
}


class OccupancyIndex:
    """Per-GPU interval index over a schedule (busy lookup + sampling)."""

    def __init__(self, jobs: Sequence[JobRecord], window_seconds: float) -> None:
        self.window_seconds = window_seconds
        per_gpu: Dict[GpuKey, List[Tuple[float, float, int]]] = {}
        for job in jobs:
            for gpu in job.gpus:
                per_gpu.setdefault(gpu, []).append((job.start_time, job.end_time, job.job_id))
        self._gpus: List[GpuKey] = sorted(per_gpu)
        self._starts: Dict[GpuKey, np.ndarray] = {}
        self._ends: Dict[GpuKey, np.ndarray] = {}
        self._job_ids: Dict[GpuKey, np.ndarray] = {}
        busy_lengths = []
        for gpu, intervals in per_gpu.items():
            intervals.sort()
            starts = np.array([s for s, _, _ in intervals])
            ends = np.array([e for _, e, _ in intervals])
            ids = np.array([j for _, _, j in intervals], dtype=np.int64)
            self._starts[gpu] = starts
            self._ends[gpu] = ends
            self._job_ids[gpu] = ids
            # Busy time is clipped to the observation window so utilization
            # stays a fraction even when queued jobs run past the window.
            clipped = np.clip(ends, None, window_seconds) - np.clip(
                starts, None, window_seconds
            )
            busy_lengths.append(float(np.maximum(clipped, 0.0).sum()))
        self._busy_lengths = np.array(busy_lengths) if busy_lengths else np.zeros(0)
        self._busy_cumulative = np.cumsum(self._busy_lengths)

    # -- lookup ----------------------------------------------------------

    def job_at(self, gpu: GpuKey, time: float) -> Optional[int]:
        """The job ID running on ``gpu`` at ``time`` (None if idle)."""
        starts = self._starts.get(gpu)
        if starts is None or starts.size == 0:
            return None
        index = int(np.searchsorted(starts, time, side="right")) - 1
        return self._job_at_index(gpu, time, index)

    def _job_at_index(self, gpu: GpuKey, time: float, index: int) -> Optional[int]:
        if index < 0:
            return None
        if time < float(self._ends[gpu][index]):
            return int(self._job_ids[gpu][index])
        return None

    def utilization(self, gpu_population: int | None = None) -> float:
        """Busy fraction over (tracked or given) GPUs and the window."""
        n = gpu_population if gpu_population is not None else len(self._gpus)
        if n == 0 or self.window_seconds <= 0:
            return 0.0
        return float(self._busy_lengths.sum()) / (n * self.window_seconds)

    # -- sampling (the injector's OccupancySampler protocol) -------------

    def sample_busy(
        self, rng: np.random.Generator, n: int
    ) -> Tuple[List[GpuKey], np.ndarray]:
        """``n`` (GPU, time) points weighted by busy GPU-time."""
        if n <= 0 or not self._gpus or self._busy_cumulative[-1] <= 0:
            return [], np.zeros(0)
        picks = rng.uniform(0.0, self._busy_cumulative[-1], size=n)
        gpu_idx = np.searchsorted(self._busy_cumulative, picks, side="right")
        gpus: List[GpuKey] = []
        times = np.empty(n)
        for i, g_index in enumerate(gpu_idx):
            gpu = self._gpus[int(g_index)]
            starts = np.minimum(self._starts[gpu], self.window_seconds)
            ends = np.minimum(self._ends[gpu], self.window_seconds)
            lengths = np.maximum(ends - starts, 0.0)
            cumulative = np.cumsum(lengths)
            offset = rng.uniform(0.0, cumulative[-1])
            k = int(np.searchsorted(cumulative, offset, side="right"))
            k = min(k, len(starts) - 1)
            prior = cumulative[k - 1] if k > 0 else 0.0
            times[i] = starts[k] + (offset - prior)
            gpus.append(gpu)
        return gpus, times

    def sample_idle(
        self, rng: np.random.Generator, n: int, candidates: Sequence[GpuKey] | None = None
    ) -> Tuple[List[GpuKey], np.ndarray]:
        """``n`` (GPU, time) points with no job active (rejection sampling)."""
        if n <= 0:
            return [], np.zeros(0)
        pool: Sequence[GpuKey] = candidates if candidates is not None else self._gpus
        if not pool:
            return [], np.zeros(0)
        gpus: List[GpuKey] = []
        times: List[float] = []
        attempts = 0
        max_attempts = 50 * n + 100
        while len(gpus) < n and attempts < max_attempts:
            attempts += 1
            gpu = pool[int(rng.integers(0, len(pool)))]
            t = float(rng.uniform(0.0, self.window_seconds))
            if self.job_at(gpu, t) is None:
                gpus.append(gpu)
                times.append(t)
        # Pathologically full schedules: fall back to busy placement rather
        # than spinning forever.
        while len(gpus) < n:
            extra_gpus, extra_times = self.sample_busy(rng, n - len(gpus))
            if not extra_gpus:
                break
            gpus.extend(extra_gpus)
            times.extend(float(t) for t in extra_times)
        return gpus, np.array(times)


@dataclass
class Schedule:
    """The placed workload plus its GPU population."""

    jobs: List[JobRecord]
    window_seconds: float
    gpu_population: Tuple[GpuKey, ...]
    dropped_jobs: int = 0
    _occupancy: OccupancyIndex | None = field(default=None, repr=False)

    @property
    def occupancy(self) -> OccupancyIndex:
        if self._occupancy is None:
            self._occupancy = OccupancyIndex(self.jobs, self.window_seconds)
        return self._occupancy

    def job_by_id(self) -> Dict[int, JobRecord]:
        return {job.job_id: job for job in self.jobs}

    def utilization(self) -> float:
        return self.occupancy.utilization(gpu_population=len(self.gpu_population))


class GpuScheduler:
    """Earliest-available GPU scheduler with drain-style blackouts."""

    def __init__(
        self,
        cluster: ClusterInventory,
        *,
        blackouts: Mapping[GpuKey, Sequence[Interval]] | None = None,
    ) -> None:
        self.cluster = cluster
        self._blackouts: Dict[GpuKey, List[Interval]] = {
            gpu: sorted(intervals) for gpu, intervals in (blackouts or {}).items()
        }
        self._pools: Dict[str, List[GpuKey]] = {
            partition: [gpu.key for node in cluster.nodes_of_kind(*kinds) for gpu in node.gpus]
            for partition, kinds in PARTITIONS.items()
        }

    def pool_size(self, partition: str) -> int:
        return len(self._pools.get(partition, ()))

    def schedule(self, jobs: Sequence[JobSpec], window_seconds: float) -> Schedule:
        """Place every job; jobs whose start would fall past the window are
        dropped (counted in ``Schedule.dropped_jobs``)."""
        # Per partition, GPUs are ranked in key order and ``release`` holds
        # each rank's free-from time: (release, rank) order is the order an
        # earliest-available queue keyed on (release, GpuKey) would pop in.
        pools: Dict[str, Tuple[List[GpuKey], np.ndarray, np.ndarray, np.ndarray]] = {}
        for partition, gpus in self._pools.items():
            if gpus:
                keys = sorted(gpus)
                nodes = np.cumsum([0] + [a[0] != b[0] for a, b in zip(keys, keys[1:])])
                drained = np.array([key in self._blackouts for key in keys])
                pools[partition] = (keys, nodes, drained, np.zeros(len(keys)))

        records: List[JobRecord] = []
        dropped = 0
        for spec in sorted(jobs, key=lambda j: j.submit_time):
            pool = pools.get(spec.partition)
            if pool is None:
                dropped += 1
                continue
            keys, _, _, release = pool
            k = min(spec.requested_gpus, len(keys))
            chosen, ready = self._allocate(pool, spec.submit_time, k)
            start = max(ready)
            if start >= window_seconds:
                # Never starts inside the window.  The chosen GPUs keep the
                # blackout-skipped ready time as their release (not their
                # old release), which later jobs see in their tie order.
                release[chosen] = ready
                dropped += 1
                continue
            end = start + spec.duration
            release[chosen] = end
            records.append(
                JobRecord(
                    job_id=spec.job_id,
                    name=spec.name,
                    user=spec.user,
                    submit_time=spec.submit_time,
                    start_time=start,
                    end_time=end,
                    n_gpus=k,
                    gpus=tuple(keys[i] for i in chosen),
                    partition=spec.partition,
                    is_ml=spec.is_ml,
                    state=spec.natural_state,
                    exit_code=spec.natural_exit_code,
                )
            )
        obs.add("slurm.jobs_scheduled", len(records))
        obs.add("slurm.jobs_dropped", dropped)
        all_gpus = tuple(g for pool in self._pools.values() for g in pool)
        return Schedule(
            jobs=records,
            window_seconds=window_seconds,
            gpu_population=all_gpus,
            dropped_jobs=dropped,
        )

    def _allocate(
        self,
        pool: Tuple[List[GpuKey], np.ndarray, np.ndarray, np.ndarray],
        submit_time: float,
        k: int,
    ) -> Tuple[List[int], List[float]]:
        """Ranks and ready times of the ``k`` earliest-available GPUs,
        packed onto one node when a single node can host the job.

        Slurm packs small GPU jobs within a node; node spread matters to the
        analysis because a job's *node*-hours (Figure 9a's loss accounting)
        and its exposure to node-local errors scale with it.
        """
        keys, nodes, drained, release = pool
        if k == 1:
            # Exact shortcut: blackout skips only ever delay a GPU, so the
            # earliest (release, rank) GPU wins unless a blackout moves it.
            rank = int(release.argmin())
            ready = max(submit_time, float(release[rank]))
            if not drained[rank] or self._skip_blackout(keys[rank], ready) == ready:
                return [rank], [ready]

        # The candidate window: the ``window`` smallest (release, rank),
        # enough to usually contain a same-node set.
        window = min(release.size, max(4 * k, 24))
        if window < release.size:
            cut = np.partition(release, window - 1)[window - 1]
            below = (release < cut).nonzero()[0]
            tied = (release == cut).nonzero()[0][: window - below.size]
            candidates = np.concatenate((below, tied))
        else:
            candidates = np.arange(release.size)
        released = release[candidates]
        ready = np.maximum(released, submit_time)
        for i in drained[candidates].nonzero()[0]:
            ready[i] = self._skip_blackout(keys[candidates[i]], ready[i])
        order = np.lexsort((candidates, released, ready))
        candidates, ready = candidates[order], ready[order]

        # Packing must never delay the job materially: only candidates ready
        # within a bounded slack of the plain earliest-k start are eligible
        # for node-grouping; within that set, fewer nodes win.
        slack = 600.0  # seconds of start delay we trade for packing
        eligible = int(np.searchsorted(ready, ready[k - 1] + slack, side="right"))
        by_node: Dict[int, List[int]] = {}
        for position, node in enumerate(nodes[candidates[:eligible]].tolist()):
            by_node.setdefault(node, []).append(position)
        packable = [group for group in by_node.values() if len(group) >= k]
        if packable:
            # The node whose k-th eligible GPU is ready first; on a tie, the
            # node that appears first in (ready, release, rank) order.
            picks = min(packable, key=lambda group: ready[group[k - 1]])[:k]
        else:
            # Multi-node job: fill the largest eligible nodes first.  The
            # eligible set holds at least the k earliest GPUs, so this
            # always reaches k.
            picks = []
            for group in sorted(by_node.values(), key=len, reverse=True):
                picks.extend(group[: k - len(picks)])
        return candidates[picks].tolist(), ready[picks].tolist()

    def _skip_blackout(self, gpu: GpuKey, ready: float) -> float:
        """Advance ``ready`` past any blackout (drain) interval covering it."""
        intervals = self._blackouts.get(gpu)
        if not intervals:
            return ready
        for start, end in intervals:
            if start <= ready < end:
                ready = end
            elif start > ready:
                break
        return ready
