"""The benchmark's own tests, at a tiny scale.

    PYTHONPATH=src python -m pytest deltabench -q

They check that every metric ``BENCHMARK.json`` names comes out with its
unit for every workload, that a wrong reference is counted as a failed
operation instead of passing, that the probes leave the program as they
found it, and that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402  (puts src/ on sys.path)
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def tiny(name: str):
    """A workload instance shrunk to test size."""
    workload = type(workloads.WORKLOADS[name])()
    workload.scale = 0.002
    workload.dump_records = 5_000
    if name == "history":
        workload.mix = (("gpu", 6), ("node_week", 6), ("xid", 2), ("window_3d", 2))
        workload.latency_samples = 32
    return workload


@pytest.fixture
def work(tmp_path):
    return tmp_path


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert dict(layers.PER_LAYER) == PER_LAYER
    assert list(layers.PER_LAYER) == [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
    assert SPEC["command"] == ["python3", "deltabench/run.py"]
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_end_to_end_metrics_have_their_units(name, work):
    state, verdict, metrics, _ = run.measure(tiny(name), 3, 0.01, work)
    assert {key: unit for key, (_, unit) in metrics.items()} == END_TO_END
    assert all(value > 0 for key, (value, _) in metrics.items()), metrics
    assert verdict.attempted > 0 and verdict.correct, verdict.problems


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_per_layer_metrics_have_their_units(name, work):
    state, verdict, metrics, extra = run.measure_layers(tiny(name), 3, 0.01, work)
    assert {key: unit for key, (_, unit) in metrics.items()} == PER_LAYER
    # Traced passes reproduced the untraced outputs exactly.
    assert verdict.correct, verdict.problems
    assert extra["passes_traced"] >= 1 and extra["passes_untraced"] >= 1
    values = {key: value for key, (value, _) in metrics.items()}
    layer_of = {
        "reproduce": ("slurm.schedule_s", "experiments.sec5.4_s", "sim.sweep_s"),
        "ingest": ("pipeline.extract_s", "store.append_s", "store.query_s"),
        "history": ("store.query_s", "replay.replay_s", "replay.score_s"),
    }
    for key in layer_of[name]:
        assert values[key] > 0, key


@pytest.mark.parametrize("name", ["ingest", "history"])
def test_an_altered_reference_counts_as_a_failed_operation(name, work):
    workload = tiny(name)
    state = workload.setup(5, work)
    refs = workload.references(state)
    clean = workload.run_pass(state, refs)
    assert clean.ops.failed == 0, clean.ops.problems

    if name == "ingest":
        refs = dict(refs, fig6="0" * 16)
    else:
        digests = list(refs["digests"])
        digests[0] = "tampered"
        refs = dict(refs, digests=digests)
    tampered = workload.run_pass(state, refs)
    assert tampered.ops.failed == 1
    assert tampered.ops.attempted == clean.ops.attempted

    verdict = run.Verdict()
    verdict.add(tampered)
    assert not verdict.correct


def test_a_pass_that_changes_its_outputs_is_not_correct():
    first = harness.PassResult(1.0, harness.Ops(attempted=1, outputs={"a": "x"}))
    second = harness.PassResult(1.0, harness.Ops(attempted=1, outputs={"a": "y"}))
    verdict = run.Verdict()
    verdict.add(first)
    verdict.add(second)
    assert verdict.failed == 1 and not verdict.correct


def test_host_speed_keeps_its_share_of_the_time_between_calls():
    speed = harness.HostSpeed()
    speed.keep_up()
    assert speed.jobs == 1 and speed.unit_s > 0
    first = speed.seconds
    time.sleep(0.5)  # stands in for part of a pass
    spent = speed.keep_up()
    assert speed.seconds - first >= harness.HostSpeed.SHARE * 0.5
    assert spent >= speed.seconds - first


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_pauses_stay_out_of_the_pass_time(name, work):
    workload = tiny(name)
    state = workload.setup(5, work)
    refs = workload.references(state)
    workload.warm_up(state, refs)
    pauses = []

    def pause():
        time.sleep(0.2)
        pauses.append(0.2)
        return 0.2

    start = harness.clock()
    result = workload.run_pass(state, refs, pause)
    elapsed = harness.clock() - start
    assert result.ops.failed == result.ops.misses, result.ops.problems
    assert len(pauses) >= 2
    assert result.wall_s <= elapsed - sum(pauses) + 0.05


def test_probes_restore_the_program():
    import repro.pipeline as pipeline
    import repro.pipeline.extract as extract
    from repro.store import EventStore

    before = (extract.iter_source_records, pipeline.iter_source_records,
              EventStore.__dict__["query"])
    with layers.probes_installed():
        assert extract.iter_source_records is not before[0]
        assert pipeline.iter_source_records is extract.iter_source_records
    after = (extract.iter_source_records, pipeline.iter_source_records,
             EventStore.__dict__["query"])
    assert after == before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "deltabench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "deltabench/run.py", "--workload", "ingest",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
