"""Property-based tests on substrate invariants: scheduler, propagation,
overprovisioning, rendering."""

import heapq

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import DeltaShape, build_delta_cluster
from repro.core.coalesce import CoalescedError
from repro.core.propagation import PropagationAnalyzer
from repro.core.overprovision import OverprovisionConfig, required_overprovision_analytic
from repro.faults.events import ErrorEvent
from repro.faults.xid import Xid
from repro.slurm.job import JobSpec
from repro.slurm.scheduler import GpuScheduler
from repro.syslog.format import burst_offsets, render_event_lines
from repro.core.parsing import parse_line

#: Pools larger than the 24-GPU candidate window, so placement also runs
#: the window's tie cut.
_CLUSTER = build_delta_cluster(DeltaShape(1, 8, 6, 2, 1))
_GPUS = [gpu.key for node in _CLUSTER.gpu_nodes for gpu in node.gpus]
_WINDOW = 2e6
#: A few shared values so submit times, durations and drains tie.
_TIES = [0.0, 1000.0, 3600.0, 5e5]


@st.composite
def placements(draw):
    """Jobs plus drain (blackout) intervals, some reaching past the window."""
    n = draw(st.integers(min_value=1, max_value=40))
    specs = []
    for i in range(n):
        specs.append(
            JobSpec(
                job_id=i + 1,
                name="job",
                user="u",
                submit_time=draw(
                    st.floats(min_value=0, max_value=1e6) | st.sampled_from(_TIES)
                ),
                requested_gpus=draw(
                    st.integers(min_value=1, max_value=8)
                    | st.integers(min_value=9, max_value=50)
                ),
                duration=draw(
                    st.floats(min_value=10.0, max_value=1e5) | st.sampled_from(_TIES[1:])
                ),
                partition=draw(st.sampled_from(["a40", "a100"])),
                is_ml=False,
            )
        )
    blackouts = {}
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        gpu = draw(st.sampled_from(_GPUS))
        start = draw(st.floats(min_value=0, max_value=2.2e6) | st.sampled_from(_TIES))
        length = draw(st.floats(min_value=1.0, max_value=5e5))
        blackouts.setdefault(gpu, []).append((start, start + length))
    return specs, blackouts


def _heap_schedule(scheduler, specs, window):
    """The per-job heap placement the array scheduler replaced, kept as the
    reference: (job_id, start, end, gpus) per placed job, and the drop count.

    It omits the old top-up after the multi-node fill, which never ran:
    the eligible set always holds the k earliest candidates.
    """
    heaps = {p: [(0.0, gpu) for gpu in gpus] for p, gpus in scheduler._pools.items()}
    for heap in heaps.values():
        heapq.heapify(heap)
    placed, dropped = [], 0
    for spec in sorted(specs, key=lambda j: j.submit_time):
        heap = heaps.get(spec.partition)
        if not heap:
            dropped += 1
            continue
        k = min(spec.requested_gpus, len(heap))
        candidates = []
        for _ in range(min(len(heap), max(4 * k, 24))):
            release, gpu = heapq.heappop(heap)
            ready = scheduler._skip_blackout(gpu, max(spec.submit_time, release))
            candidates.append((ready, release, gpu))
        candidates.sort()
        eligible = [c for c in candidates if c[0] <= candidates[k - 1][0] + 600.0]
        by_node = {}
        for item in eligible:
            by_node.setdefault(item[2][0], []).append(item)
        packable = [group for group in by_node.values() if len(group) >= k]
        if packable:
            chosen = min((g[:k] for g in packable), key=lambda g: max(r for r, _, _ in g))
        else:
            chosen = []
            for group in sorted(by_node.values(), key=len, reverse=True):
                chosen.extend(group[: k - len(chosen)])
        chosen_keys = {gpu for _, _, gpu in chosen}
        for _, release, gpu in candidates:
            if gpu not in chosen_keys:
                heapq.heappush(heap, (release, gpu))
        start = max(ready for ready, _, _ in chosen)
        if start >= window:
            for ready, _, gpu in chosen:
                heapq.heappush(heap, (ready, gpu))
            dropped += 1
            continue
        for _, _, gpu in chosen:
            heapq.heappush(heap, (start + spec.duration, gpu))
        placed.append((spec.job_id, start, start + spec.duration,
                       tuple(gpu for _, _, gpu in chosen)))
    return placed, dropped


@given(case=placements())
@settings(max_examples=50, deadline=None)
def test_scheduler_never_double_books(case):
    """A job starts outside the drains of the GPU whose ready time set its
    start, so a 1-GPU job never starts inside a drain.  A GPU of a larger
    job that was ready earlier is not checked again at the start and may
    be draining by then; see ROADMAP."""
    specs, blackouts = case
    schedule = GpuScheduler(_CLUSTER, blackouts=blackouts).schedule(specs, _WINDOW)
    per_gpu = {}
    for job in schedule.jobs:
        assert job.start_time >= job.submit_time
        assert len(set(job.gpus)) == job.n_gpus  # no duplicate GPUs in a job
        drained = [
            any(s <= job.start_time < e for s, e in blackouts.get(gpu, ()))
            for gpu in job.gpus
        ]
        assert not all(drained)
        for gpu in job.gpus:
            per_gpu.setdefault(gpu, []).append((job.start_time, job.end_time))
    for intervals in per_gpu.values():
        intervals.sort()
        for (s1, e1), (s2, _) in zip(intervals, intervals[1:]):
            assert s2 >= e1 - 1e-6


@given(case=placements())
@settings(max_examples=30, deadline=None)
def test_scheduler_accounts_every_job(case):
    specs, blackouts = case
    schedule = GpuScheduler(_CLUSTER, blackouts=blackouts).schedule(specs, _WINDOW)
    assert len(schedule.jobs) + schedule.dropped_jobs == len(specs)


@given(case=placements())
@settings(max_examples=60, deadline=None)
def test_scheduler_matches_the_heap_reference(case):
    specs, blackouts = case
    scheduler = GpuScheduler(_CLUSTER, blackouts=blackouts)
    schedule = scheduler.schedule(specs, _WINDOW)
    placed = [(j.job_id, j.start_time, j.end_time, j.gpus) for j in schedule.jobs]
    assert (placed, schedule.dropped_jobs) == _heap_schedule(scheduler, specs, _WINDOW)


@st.composite
def error_streams(draw):
    n = draw(st.integers(min_value=1, max_value=80))
    out = []
    t = 0.0
    for _ in range(n):
        t += draw(st.floats(min_value=0.1, max_value=300.0))
        out.append(
            CoalescedError(
                t,
                draw(st.sampled_from(["n1", "n2"])),
                draw(st.sampled_from(["p1", "p2"])),
                draw(st.sampled_from([31, 74, 95, 119, 122])),
                0.0,
                1,
            )
        )
    return out


@given(errors=error_streams())
@settings(max_examples=60, deadline=None)
def test_propagation_probabilities_normalized(errors):
    """Outgoing intra edges + terminal probability sum to 1 per code."""
    graph = PropagationAnalyzer(errors, window=60.0).analyze()
    for xid in graph.source_counts:
        outgoing = sum(
            stats.count for (src, _), stats in graph.intra_edges.items() if src == xid
        )
        terminal = graph.terminal_counts.get(xid, 0)
        assert outgoing + terminal == graph.source_counts[xid]


@given(errors=error_streams())
@settings(max_examples=60, deadline=None)
def test_nvlink_involvement_accounting(errors):
    involvement = PropagationAnalyzer(errors, window=60.0).nvlink_involvement()
    nvlink_total = sum(1 for e in errors if e.xid == int(Xid.NVLINK))
    assert involvement.total_errors == nvlink_total
    assert (
        involvement.errors_in_all8_incidents
        <= involvement.errors_in_4plus_gpu_incidents
        <= involvement.errors_in_multi_gpu_incidents
        <= involvement.total_errors
    )


@given(
    recovery=st.floats(min_value=1.0, max_value=120.0),
    availability=st.floats(min_value=0.99, max_value=0.9999),
)
@settings(max_examples=80, deadline=None)
def test_overprovision_monotone(recovery, availability):
    base = OverprovisionConfig(recovery_minutes=recovery, availability=availability)
    slower = OverprovisionConfig(
        recovery_minutes=recovery * 2, availability=availability
    )
    assert required_overprovision_analytic(slower) >= required_overprovision_analytic(
        base
    )


@given(persistence=st.floats(min_value=0.0, max_value=5_000.0))
@settings(max_examples=80, deadline=None)
def test_rendered_burst_parses_and_coalesces_whole(persistence):
    """Any event's burst parses back and would coalesce into one error."""
    event = ErrorEvent(
        time=1_000.0, node_id="n1", pci_bus="0000:07:00", xid=Xid.UNCONTAINED,
        persistence=persistence,
    )
    lines = render_event_lines(event, seed=1)
    times = []
    for line in lines:
        record = parse_line(line)
        assert record is not None
        times.append(record.time)
    times.sort()
    assert all(b - a <= 5.0 for a, b in zip(times, times[1:]))
    assert times[-1] - times[0] == (
        0.0 if persistence <= 0 else __import__("pytest").approx(persistence, abs=0.003)
    )


@given(persistence=st.floats(min_value=0.001, max_value=2_000.0), seed=st.integers(0, 10))
@settings(max_examples=100, deadline=None)
def test_burst_offsets_cover_span(persistence, seed):
    rng = np.random.default_rng(seed)
    offsets = burst_offsets(persistence, rng)
    assert offsets[0] == 0.0
    assert abs(offsets[-1] - persistence) < 1e-9
    assert all(b - a < 5.0 for a, b in zip(offsets, offsets[1:]))
