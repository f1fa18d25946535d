"""GPU scheduler: placement invariants, packing, blackouts, occupancy."""

import hashlib

import numpy as np
import pytest

from repro.slurm.job import JobSpec, JobState
from repro.slurm.scheduler import GpuScheduler, OccupancyIndex, PARTITIONS
from repro.slurm.workload import WorkloadConfig, WorkloadModel

WINDOW = 40 * 86400.0


def _spec(job_id, submit, gpus=1, duration=3600.0, partition="a100"):
    return JobSpec(
        job_id=job_id,
        name="job",
        user="u001",
        submit_time=submit,
        requested_gpus=gpus,
        duration=duration,
        partition=partition,
        is_ml=False,
    )


@pytest.fixture(scope="module")
def schedule(small_cluster):
    model = WorkloadModel(WorkloadConfig(scale=0.002, seed=4))
    specs = model.generate()
    return GpuScheduler(small_cluster).schedule(specs, 855 * 86400.0 * 0.002)


class TestInvariants:
    def test_no_gpu_double_booked(self, schedule):
        per_gpu = {}
        for job in schedule.jobs:
            for gpu in job.gpus:
                per_gpu.setdefault(gpu, []).append((job.start_time, job.end_time))
        for intervals in per_gpu.values():
            intervals.sort()
            for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
                assert s2 >= e1 - 1e-6

    def test_jobs_start_after_submit(self, schedule):
        assert all(j.start_time >= j.submit_time for j in schedule.jobs)

    def test_requested_partition_respected(self, schedule, small_cluster):
        pools = {
            partition: {
                gpu.key
                for node in small_cluster.nodes_of_kind(*kinds)
                for gpu in node.gpus
            }
            for partition, kinds in PARTITIONS.items()
        }
        for job in schedule.jobs:
            assert set(job.gpus) <= pools[job.partition]

    def test_natural_state_carried_through(self, schedule):
        states = {j.state for j in schedule.jobs}
        assert JobState.COMPLETED in states and JobState.FAILED in states


class TestPacking:
    def test_small_jobs_pack_onto_one_node(self, small_cluster):
        specs = [_spec(i, submit=i * 10.0, gpus=4) for i in range(20)]
        schedule = GpuScheduler(small_cluster).schedule(specs, WINDOW)
        packed = sum(1 for j in schedule.jobs if len(j.nodes) == 1)
        assert packed / len(schedule.jobs) > 0.8

    def test_large_jobs_fill_whole_nodes(self, small_cluster):
        # 12 GPUs on 4-way nodes should use ~3 nodes, not 12.
        specs = [_spec(1, submit=0.0, gpus=12)]
        schedule = GpuScheduler(small_cluster).schedule(specs, WINDOW)
        assert len(schedule.jobs[0].nodes) <= 5


class TestQueueing:
    def test_oversubscribed_jobs_wait(self, small_cluster):
        pool = GpuScheduler(small_cluster).pool_size("a100")
        specs = [
            _spec(i, submit=0.0, gpus=pool, duration=7200.0) for i in range(1, 3)
        ]
        schedule = GpuScheduler(small_cluster).schedule(specs, WINDOW)
        starts = sorted(j.start_time for j in schedule.jobs)
        assert starts[1] >= starts[0] + 7200.0 - 1e-6

    def test_requests_beyond_pool_are_clamped(self, small_cluster):
        pool = GpuScheduler(small_cluster).pool_size("a100")
        schedule = GpuScheduler(small_cluster).schedule(
            [_spec(1, 0.0, gpus=pool + 50)], WINDOW
        )
        assert schedule.jobs[0].n_gpus == pool

    def test_job_past_window_dropped(self, small_cluster):
        schedule = GpuScheduler(small_cluster).schedule(
            [_spec(1, submit=WINDOW + 10.0)], WINDOW
        )
        assert not schedule.jobs and schedule.dropped_jobs == 1

    def test_dropped_job_requeues_gpus_at_their_ready_time(self, small_cluster):
        # Job 1 needs the whole pool, whose last GPU is drained past the
        # window, so it is dropped.  Its GPUs go back at their ready time:
        # the first GPU at its drain end (1,000 s), the rest at the submit
        # time (100 s).  Job 2 ties on ready time everywhere, so the lower
        # release wins and it skips the first GPU.  Re-queued at their old
        # release, or at the un-skipped 100 s, the first GPU would win.
        keys = _a100_keys(small_cluster)
        blackouts = {keys[0]: [(0.0, 1000.0)], keys[-1]: [(0.0, WINDOW + 100.0)]}
        specs = [_spec(1, 100.0, gpus=len(keys)), _spec(2, 2000.0)]
        schedule = GpuScheduler(small_cluster, blackouts=blackouts).schedule(
            specs, WINDOW
        )
        assert schedule.dropped_jobs == 1
        assert schedule.jobs[0].gpus == (keys[1],)

    def test_unknown_partition_dropped(self, small_cluster):
        schedule = GpuScheduler(small_cluster).schedule(
            [_spec(1, 0.0, partition="tpu")], WINDOW
        )
        assert schedule.dropped_jobs == 1


class TestBlackouts:
    def test_drained_gpu_gets_no_new_placements(self, small_cluster):
        node = [n for n in small_cluster.gpu_nodes if n.kind.value == "a100_x4"][0]
        blackout_gpu = node.gpus[0].key
        blackouts = {blackout_gpu: [(0.0, WINDOW)]}
        specs = [_spec(i, submit=float(i), gpus=1) for i in range(60)]
        schedule = GpuScheduler(small_cluster, blackouts=blackouts).schedule(
            specs, WINDOW
        )
        placed = {gpu for job in schedule.jobs for gpu in job.gpus}
        assert blackout_gpu not in placed

    def test_blackout_delays_rather_than_drops(self, small_cluster):
        # Black out every a100 GPU for the first day: jobs queue behind it.
        pool = [
            gpu.key
            for node in small_cluster.gpu_nodes
            if node.kind.value in ("a100_x4", "a100_x8")
            for gpu in node.gpus
        ]
        blackouts = {gpu: [(0.0, 86400.0)] for gpu in pool}
        schedule = GpuScheduler(small_cluster, blackouts=blackouts).schedule(
            [_spec(1, submit=0.0)], WINDOW
        )
        assert schedule.jobs[0].start_time >= 86400.0


class TestDrainSubstitution:
    """Drain semantics the what-if engine's spare policy relies on: a job
    already running through a blackout keeps its GPUs, while new placements
    are substituted onto the rest of the pool."""

    def _node_blackout(self, small_cluster, start, end):
        node = [n for n in small_cluster.gpu_nodes if n.kind.value == "a100_x4"][0]
        return node, {gpu.key: [(start, end)] for gpu in node.gpus}

    def test_running_job_keeps_gpus_through_blackout(self, small_cluster):
        # The blackout starts an hour into a four-hour job on that node:
        # Slurm drain does not preempt, so the placement must be identical
        # to the no-blackout schedule and occupancy must show the job
        # running on the drained GPUs mid-blackout.
        node, blackouts = self._node_blackout(small_cluster, 3600.0, WINDOW)
        specs = [_spec(1, submit=0.0, gpus=4, duration=4 * 3600.0)]
        plain = GpuScheduler(small_cluster).schedule(specs, WINDOW)
        drained = GpuScheduler(small_cluster, blackouts=blackouts).schedule(
            specs, WINDOW
        )
        assert drained.jobs[0].gpus == plain.jobs[0].gpus
        job = drained.jobs[0]
        mid_blackout = 2 * 3600.0
        assert all(
            drained.occupancy.job_at(gpu, mid_blackout) == job.job_id
            for gpu in job.gpus
        )

    def test_new_placements_substituted_onto_healthy_nodes(self, small_cluster):
        # While the node drains, single-GPU jobs keep flowing: every one of
        # them must land on a spare (non-drained) GPU even though the
        # drained node's GPUs are the earliest-available by release time.
        node, blackouts = self._node_blackout(small_cluster, 0.0, WINDOW / 2)
        drained_keys = {gpu.key for gpu in node.gpus}
        specs = [_spec(i, submit=float(i), gpus=1) for i in range(40)]
        schedule = GpuScheduler(small_cluster, blackouts=blackouts).schedule(
            specs, WINDOW
        )
        placed_during = {
            gpu
            for job in schedule.jobs
            if job.start_time < WINDOW / 2
            for gpu in job.gpus
        }
        assert not placed_during & drained_keys
        assert schedule.dropped_jobs == 0  # substitution, not rejection

    def test_drained_node_returns_to_service(self, small_cluster):
        # After the drain window closes the node takes placements again —
        # the repaired node rejoining the pool.
        end = 86400.0
        node, blackouts = self._node_blackout(small_cluster, 0.0, end)
        drained_keys = {gpu.key for gpu in node.gpus}
        pool = GpuScheduler(small_cluster).pool_size("a100")
        specs = [
            _spec(i, submit=end + float(i), gpus=pool, duration=3600.0)
            for i in range(1, 3)
        ]
        schedule = GpuScheduler(small_cluster, blackouts=blackouts).schedule(
            specs, WINDOW
        )
        placed = {gpu for job in schedule.jobs for gpu in job.gpus}
        assert drained_keys <= placed

    def test_blackout_on_whole_pool_defers_until_lifted(self, small_cluster):
        # Degenerate spare-pool case: nothing healthy remains, so the job
        # waits for the drain to lift rather than silently landing on a
        # drained GPU.
        pool = [
            gpu.key
            for node in small_cluster.gpu_nodes
            if node.kind.value in ("a100_x4", "a100_x8")
            for gpu in node.gpus
        ]
        lift = 7200.0
        blackouts = {gpu: [(0.0, lift)] for gpu in pool}
        schedule = GpuScheduler(small_cluster, blackouts=blackouts).schedule(
            [_spec(1, submit=0.0, gpus=4)], WINDOW
        )
        assert schedule.jobs[0].start_time >= lift


class TestOccupancyIndex:
    def test_job_at_lookup(self, small_cluster):
        specs = [_spec(1, submit=0.0, duration=1000.0)]
        schedule = GpuScheduler(small_cluster).schedule(specs, WINDOW)
        job = schedule.jobs[0]
        gpu = job.gpus[0]
        occupancy = schedule.occupancy
        assert occupancy.job_at(gpu, job.start_time + 1.0) == job.job_id
        assert occupancy.job_at(gpu, job.end_time + 1.0) is None
        assert occupancy.job_at(("nope", "x"), 0.0) is None

    def test_sample_busy_points_hit_jobs(self, schedule):
        occupancy = schedule.occupancy
        rng = np.random.default_rng(0)
        gpus, times = occupancy.sample_busy(rng, 200)
        assert len(gpus) == 200
        assert all(
            occupancy.job_at(gpu, t) is not None for gpu, t in zip(gpus, times)
        )

    def test_sample_idle_points_miss_jobs(self, schedule):
        occupancy = schedule.occupancy
        rng = np.random.default_rng(0)
        gpus, times = occupancy.sample_idle(rng, 200)
        assert all(occupancy.job_at(gpu, t) is None for gpu, t in zip(gpus, times))

    def test_utilization_between_zero_and_one(self, schedule):
        util = schedule.utilization()
        assert 0.0 < util < 1.0

    def test_empty_index(self):
        occupancy = OccupancyIndex([], window_seconds=100.0)
        rng = np.random.default_rng(0)
        gpus, times = occupancy.sample_busy(rng, 5)
        assert gpus == [] and times.size == 0
        assert occupancy.utilization() == 0.0


def _digest(jobs):
    """sha256 over every field of every placed job, in schedule order."""
    digest = hashlib.sha256()
    for job in jobs:
        fields = (
            job.job_id, job.name, job.user, job.submit_time, job.start_time,
            job.end_time, job.n_gpus, job.gpus, job.partition, job.is_ml,
            job.state.value, int(job.exit_code), job.truth_failed_by_xid,
        )
        digest.update(repr(fields).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _a100_keys(cluster):
    return sorted(
        gpu.key
        for node in cluster.nodes_of_kind(*PARTITIONS["a100"])
        for gpu in node.gpus
    )


def _branch_case(name, cluster):
    """(scheduler, specs, window) exercising one placement branch."""
    keys = _a100_keys(cluster)
    pool = len(keys)
    if name == "packed":
        # 2- and 4-GPU jobs arriving faster than they finish pack per node.
        specs = [
            _spec(i, submit=i * 60.0, gpus=2 + 2 * (i % 2), duration=900.0 + 37.0 * i)
            for i in range(1, 30)
        ]
        return GpuScheduler(cluster), specs, WINDOW
    if name == "multi_node":
        # 10 and 12 GPUs fill the 8-way node first, then 4-way ones; the
        # staggered 1-GPU jobs make the fill order depend on release times.
        specs = [_spec(i, submit=float(i), duration=500.0 * i) for i in range(1, 6)]
        specs += [
            _spec(10, submit=10.0, gpus=10, duration=7200.0),
            _spec(11, submit=20.0, gpus=12, duration=3600.0),
            _spec(12, submit=30.0, gpus=6, duration=1800.0),
        ]
        return GpuScheduler(cluster), specs, WINDOW
    if name == "clamped":
        specs = [
            _spec(1, submit=0.0, gpus=3),
            _spec(2, submit=5.0, gpus=pool + 50),
            _spec(3, submit=6.0, gpus=1),
        ]
        return GpuScheduler(cluster), specs, WINDOW
    if name == "unknown_partition":
        specs = [
            _spec(1, submit=0.0, gpus=2),
            _spec(2, submit=1.0, partition="tpu"),
            _spec(3, submit=2.0, gpus=2),
        ]
        return GpuScheduler(cluster), specs, WINDOW
    if name == "dropped":
        # Job 2 needs the GPU drained past the window and is dropped; the
        # jobs after it still place.
        blackouts = {keys[-1]: [(0.0, WINDOW + 100.0)]}
        specs = [
            _spec(1, submit=0.0, duration=50.0),
            _spec(2, submit=100.0, gpus=pool),
            _spec(3, submit=100.0),
            _spec(4, submit=200.0, gpus=4),
        ]
        return GpuScheduler(cluster, blackouts=blackouts), specs, WINDOW
    if name == "k1_blackout":
        # The earliest GPU is drained for 1-GPU jobs; a later drain on
        # another GPU starts after the job it would delay.
        blackouts = {
            keys[0]: [(0.0, 3600.0), (7200.0, 9000.0)],
            keys[1]: [(5000.0, 6000.0)],
        }
        specs = [
            _spec(i, submit=i * 400.0, duration=1000.0 + 10.0 * i) for i in range(1, 40)
        ]
        return GpuScheduler(cluster, blackouts=blackouts), specs, WINDOW
    raise KeyError(name)


#: Schedule digests recorded with the heap-based scheduler: placement must
#: stay byte-identical, tie order included.
BRANCH_DIGESTS = {
    "packed": "bff7bef44c73945f65dcf00f2cfe5bdbb8cbff00c158ac3a6ace7c28db055d79",
    "multi_node": "9aaf4650d5f268c33e0dd07c0678df987f5433e0ba40c767d3c82c1a4e8c66f3",
    "clamped": "72e5cee36094b79bd75193b7de89101019977306fdab276f4309d1be9f27d62e",
    "unknown_partition": "ab53efda0bee71c34dd237c698d54b9764e898bc093a88967c33a06f29e29eae",
    "dropped": "00c3a1a87ca2c4016e6740787e3cd79c652327dbcbf6056c288dbfee21ced0ed",
    "k1_blackout": "b8081cfb077c2fc7c71c3d45b26776ecd149eca31835347e5ae35b6a4d1aa628",
}
WORKLOAD_DIGEST = "281500427b9436018501bf4db746e0e304beb823b2280e2c48eb560937f5155c"
DATASET_DIGEST = "52f592c3cd0b8e3e28a70545c90623d200594e2b8a876ee05d0ce853444ef248"
H100_DATASET_DIGEST = "29513216fbf57483d72712939f282cab620d5842af5e05e0d0bdbad38428ab17"


class TestScheduleIdentity:
    @pytest.mark.parametrize("name", sorted(BRANCH_DIGESTS))
    def test_branch_schedules_unchanged(self, name, small_cluster):
        scheduler, specs, window = _branch_case(name, small_cluster)
        assert _digest(scheduler.schedule(specs, window).jobs) == BRANCH_DIGESTS[name]

    def test_small_workload_schedule_unchanged(self, schedule):
        assert _digest(schedule.jobs) == WORKLOAD_DIGEST

    def test_ampere_dataset_schedule_unchanged(self, dataset):
        assert _digest(dataset.schedule.jobs) == DATASET_DIGEST

    def test_h100_dataset_schedule_unchanged(self, h100_dataset):
        assert _digest(h100_dataset.schedule.jobs) == H100_DATASET_DIGEST
