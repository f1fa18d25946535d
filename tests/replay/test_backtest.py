"""Replay engine + backtest scorecard over the demo history."""

import json
import time

import pytest

from repro.replay import (
    BacktestConfig,
    OnsetEvent,
    ReplayEngine,
    ReplayPacer,
    VirtualClock,
    extract_incidents,
    run_backtest,
)
from repro.results import validate_result_dict
from repro.results.render import render_text


class TestReplayEngine:
    def test_demo_history_fires_every_default_rule(self, demo_records):
        outcome = ReplayEngine().replay(demo_records)
        assert outcome.records == len(demo_records)
        fired = {alert.rule for alert in outcome.alerts}
        assert fired == {
            "xid79-fallen-off-bus",
            "xid119-gsp-repeat",
            "dbe-remap-chain",
            "uncontained-burst",
            "persistence-tail",
        }
        assert outcome.onsets > 0
        assert outcome.alarms > 0
        assert outcome.time_min < outcome.time_max
        assert len(outcome.serials) > 0

    def test_repeated_sessions_are_identical(self, demo_records):
        first = ReplayEngine().replay(demo_records)
        second = ReplayEngine().replay(demo_records)
        assert first.alerts == second.alerts
        assert first.onset_events == second.onset_events
        assert first.serials == second.serials

    def test_store_stream_matches_log_stream(self, demo_store, demo_records):
        from_store = ReplayEngine().replay(demo_store.query())
        from_logs = ReplayEngine().replay(demo_records)
        assert from_store.alerts == from_logs.alerts
        assert from_store.records == from_logs.records

    def test_unbounded_replay_runs_50x_faster_than_real_time(self, history_store):
        # A generous floor: its job is to catch a wall-clock sleep creeping
        # into the unbounded hot path, not to time the stack.
        ReplayEngine().replay(history_store.query())  # warm pass
        begin = time.perf_counter()
        outcome = ReplayEngine().replay(history_store.query())
        elapsed = time.perf_counter() - begin
        assert outcome.records == history_store.n_records
        assert outcome.span_seconds >= 50.0 * elapsed

    def test_paced_replay_reports_wall_time(self, demo_records):
        clock = VirtualClock()
        pacer = ReplayPacer(
            100.0, monotonic=clock.monotonic, sleep=clock.sleep
        )
        outcome = ReplayEngine(pacer=pacer).replay(demo_records)
        # 100x compression: wall time ~ span / 100 on the virtual clock.
        assert outcome.wall_seconds == pytest.approx(
            outcome.span_seconds / 100.0, rel=0.01
        )
        assert outcome.speedup == pytest.approx(100.0, rel=0.01)


class TestIncidents:
    def _event(self, t, node="gpua001", xid=79):
        return OnsetEvent(time=t, node_id=node, pci_bus="0000:07:00", xid=xid)

    def test_merges_per_node_episodes(self):
        events = [
            self._event(0.0),
            self._event(100.0),            # same episode
            self._event(5_000.0),          # > merge gap: new episode
            self._event(50.0, node="gpub002"),
            self._event(10.0, xid=31),     # not the critical code
        ]
        incidents = extract_incidents(
            events, critical_xid=79, merge_seconds=3_600.0
        )
        assert [(i.node_id, i.time, i.n_onsets) for i in incidents] == [
            ("gpua001", 0.0, 2),
            ("gpub002", 50.0, 1),
            ("gpua001", 5_000.0, 1),
        ]
        assert incidents[0].last_time == 100.0

    def test_no_critical_onsets_no_incidents(self):
        assert extract_incidents(
            [self._event(0.0, xid=31)], critical_xid=79, merge_seconds=60.0
        ) == ()


class TestBacktest:
    @pytest.fixture(scope="class")
    def scorecard(self, demo_store):
        return run_backtest(
            lambda: demo_store.query(),
            BacktestConfig(),
            source_label="store:demo",
            source_fingerprint=demo_store.content_hash(),
        )

    def test_scorecard_is_schema_valid(self, scorecard):
        assert validate_result_dict(scorecard.to_dict()) == []
        assert scorecard.experiment_id == "replay.backtest"

    def test_ground_truth_and_alerts_scored(self, scorecard):
        assert scorecard.value("incidents") > 0
        assert scorecard.value("alerts_total") > 0
        # The drain-node rule fires on the critical code itself, so every
        # incident is recalled.
        assert scorecard.value("incident_recall") == 1.0
        rules_table = scorecard.table("Per-rule alert scorecard")
        by_rule = {row[0]: row for row in rules_table.rows}
        assert by_rule["xid79-fallen-off-bus"][3] == 1.0  # precision

    def test_predictor_sweep_present(self, scorecard):
        assert scorecard.value("predictor_runs_train") > 0
        assert scorecard.value("predictor_runs_test") > 0
        pr = scorecard.table("Predictor PR curve")
        assert len(pr.rows) == 19  # the fixed threshold grid
        assert 0.0 <= scorecard.value("predictor_average_precision") <= 1.0

    def test_manifest_is_reproducible_provenance(self, scorecard, demo_store):
        manifest = scorecard.manifest
        assert manifest.run_id.startswith("replay-")
        assert manifest.engine == "replay"
        assert manifest.workers is None  # never part of the identity
        assert manifest.config_hashes["source"] == demo_store.content_hash()
        # Event time, not wall time.
        assert manifest.created_unix == scorecard_time_max(demo_store)

    def test_renderer_registered(self, scorecard):
        text = render_text(scorecard)
        assert "Per-rule alert scorecard" in text
        assert "false alarms" in text

    def test_json_round_trip(self, scorecard):
        from repro.results import ExperimentResult

        payload = scorecard.render_json()
        restored = ExperimentResult.from_json(payload)
        assert restored.render_json() == payload
        assert json.loads(payload)["schema"] == "repro.results/1"


def scorecard_time_max(store):
    return store.time_span[1]
