"""Sections 3.2-6 at paper-shape scale: the coalescing window, persistence,
reliability statistics, persistence prediction, live alarming, the
Section 5.4/5.5 projections and the emerging H100 errors."""

import numpy as np
import pytest

from repro.cluster import build_delta_cluster
from repro.core import DeltaStudy
from repro.core.coalesce import CoalesceConfig, coalesce_errors
from repro.core.h100 import H100Analyzer
from repro.core.overprovision import (
    OverprovisionConfig,
    OverprovisionSimulator,
    required_overprovision_analytic,
)
from repro.core.prediction import PersistencePredictor, extract_runs
from repro.core.reliability import (
    fit_exponential,
    fit_weibull,
    interarrival_times,
    mtbe_confidence_interval,
    trend_test,
)
from repro.core.spatial import SpatialAnalyzer
from repro.core.streaming import StreamingCoalescer
from repro.datasets import DeltaDatasetConfig, synthesize_delta
from repro.faults import AMPERE_CALIBRATION
from repro.faults.variants import burned_in_profile, hardened_peripherals_profile
from repro.faults.xid import Xid


class TestDeltaTAblation:
    """Paper Section 3.2: varying dt from 5 to 20 seconds barely moves the
    results; far larger windows start merging distinct errors."""

    @pytest.fixture(scope="class")
    def counts(self, paper_study):
        return {
            dt: len(coalesce_errors(paper_study.records, CoalesceConfig(window_seconds=dt)))
            for dt in (5.0, 10.0, 20.0, 600.0)
        }

    def test_5s_vs_20s_stable(self, counts):
        assert abs(counts[5.0] - counts[20.0]) / counts[5.0] < 0.05

    def test_10s_between(self, counts):
        assert counts[5.0] >= counts[10.0] >= counts[20.0]

    def test_huge_window_collapses_bursty_codes(self, counts):
        assert counts[600.0] < counts[5.0] * 0.8


class TestPersistence:
    """Section 4.3: persistence distributions and lost-GPU-hours accounting."""

    @pytest.fixture(scope="class")
    def analyzer(self, paper_study):
        return paper_study.persistence()

    def test_tail_carries_most_of_the_loss(self, analyzer):
        # Paper: errors persisting beyond their P95 carry 91% of lost GPU-hours.
        assert analyzer.tail_analysis().tail_share > 0.55

    def test_loss_dominated_by_uncontained(self, analyzer):
        per_code = {xid: summary.total for xid, summary in analyzer.summaries().items()}
        assert per_code[int(Xid.UNCONTAINED)] / sum(per_code.values()) > 0.9

    def test_watchlist_is_all_uncontained(self, analyzer):
        # The SRE watchlist (longest persistences) should surface the offender.
        longest = analyzer.longest(10)
        assert all(e.xid == int(Xid.UNCONTAINED) for e in longest)
        assert longest[0].persistence > 3_600.0

    def test_above_threshold_alerting(self, analyzer):
        day_long = analyzer.above_threshold(12 * 3600.0)
        hour_long = analyzer.above_threshold(3_600.0)
        assert len(day_long) < len(hour_long)

    def test_burst_volume_like_paper_narrative(self, analyzer):
        # "over a million duplicated log entries" at full scale: raw-line volume
        # for uncontained errors dwarfs every other code's.
        mean95, max95 = analyzer.burstiness(int(Xid.UNCONTAINED))
        mean31, _ = analyzer.burstiness(int(Xid.MMU))
        assert mean95 > 20 * mean31
        assert max95 > 1_000


class TestReliability:
    """Reliability statistics and spatial concentration."""

    @pytest.fixture(scope="class")
    def errors(self, paper_study):
        return paper_study.error_statistics().errors

    def test_mtbe_intervals_bracket_table1(self, errors):
        # Bursty XID 95 arrivals put the mean inter-arrival gap below the
        # window/count estimator Table 1 uses, so that code is not bracketed.
        for xid, reference in {31: 1.09, 74: 6.87, 119: 9.61}.items():
            interval = mtbe_confidence_interval([e for e in errors if e.xid == xid])
            assert interval.low < interval.high, xid
            # The paper's point estimate should sit inside (or graze) the CI.
            slack = (interval.high - interval.low) * 0.5
            assert interval.low - slack <= reference <= interval.high + slack, xid

    def test_offender_stream_is_bursty(self, errors):
        """The uncontained arrivals fit a Weibull with shape << 1 (bursty,
        decreasing hazard); GSP arrivals are near-exponential — statistical
        confirmation of Section 4.4's qualitative split."""
        uncontained = interarrival_times([e for e in errors if e.xid == 95])
        w_unc = fit_weibull(uncontained)
        w_gsp = fit_weibull(interarrival_times([e for e in errors if e.xid == 119]))
        assert w_unc.shape < 0.85
        assert w_gsp.shape == pytest.approx(1.0, abs=0.25)
        assert w_unc.shape < w_gsp.shape - 0.1
        assert w_unc.log_likelihood > fit_exponential(uncontained).log_likelihood

    def test_spatial_concentration(self, errors):
        analyzer = SpatialAnalyzer(errors, n_gpus=848)
        assert analyzer.top_share(95, 1) > 0.95  # paper: one GPU at 99%
        assert analyzer.top_share(95, 4) > 0.97  # paper: 4 GPUs hold ~all
        assert analyzer.gini(95) > analyzer.gini(119)

    def test_gsp_stream_is_stationary(self, errors, paper_study):
        """GSP errors arrive steadily across the window (no burn-in effect),
        unlike the testing-phase-concentrated memory codes."""
        gsp = [e for e in errors if e.xid == 119]
        result = trend_test(gsp, paper_study.window_hours * 3600.0)
        assert abs(result.statistic) < 4.0  # no strong drift


class TestPersistencePrediction:
    """The Section-4.3 future-work model, trained on the first half of the
    observation window and evaluated on the second half — the deployment
    setting an SRE team would face."""

    @pytest.fixture(scope="class")
    def split_runs(self, paper_study):
        runs = sorted(extract_runs(paper_study.records), key=lambda r: r.start_time)
        half = len(runs) // 2
        return runs[:half], runs[half:]

    @pytest.fixture(scope="class")
    def fitted(self, split_runs):
        return PersistencePredictor(long_threshold_seconds=600.0).fit(split_runs[0])

    def test_prediction_quality(self, fitted, split_runs):
        test = split_runs[1]
        metrics = fitted.evaluate(test)
        assert metrics["recall"] > 0.6
        base_rate = metrics["positives"] / max(len(test), 1)
        assert metrics["precision"] > 3 * base_rate

    def test_probabilities_rank_long_runs_higher(self, fitted, split_runs):
        test = split_runs[1]
        probabilities = fitted.predict_proba(test)
        labels = fitted.labels(test).astype(bool)
        assert labels.sum() >= 5
        assert probabilities[labels].mean() > probabilities[~labels].mean() + 0.2

    def test_early_warning_lead_time(self, fitted, split_runs):
        """Flagged runs are caught with hours of persistence still ahead —
        the preventive-action window the paper asks for."""
        test = split_runs[1]
        flagged = [
            run
            for run, hit in zip(test, fitted.predict(test))
            if hit and run.final_persistence > 600.0
        ]
        assert flagged
        lead = np.mean([run.final_persistence - 300.0 for run in flagged])
        assert lead > 600.0  # >10 minutes of actionable warning on average


class TestStreamingMonitor:
    @pytest.fixture(scope="class")
    def ordered_records(self, paper_study):
        return sorted(paper_study.records, key=lambda r: r.time)

    def test_streaming_equals_batch(self, ordered_records):
        coalescer = StreamingCoalescer()
        for record in ordered_records:
            coalescer.feed(record)
        online = coalescer.flush()
        batch = coalesce_errors(ordered_records)
        assert len(online) == len(batch)
        assert sum(e.n_raw for e in online) == sum(e.n_raw for e in batch)

    def test_alarm_latency_vs_postmortem(self, ordered_records):
        """Live alarms fire within ~threshold seconds of burst onset; the batch
        pipeline only learns about a burst after it *ends* — for the paper's
        17-day saga that difference is the whole incident."""
        threshold = 1_800.0
        coalescer = StreamingCoalescer(alarm_after_seconds=threshold)
        for record in ordered_records:
            coalescer.feed(record)
        errors = coalescer.flush()
        alarms = coalescer.alarms
        assert alarms

        long_runs = [e for e in errors if e.persistence > threshold]
        assert long_runs
        # Every sufficiently long run alarmed, and it alarmed while young.
        assert len(alarms) >= len(long_runs)
        postmortem_delay = sum(e.persistence for e in long_runs) / len(long_runs)
        live_delay = sum(a.open_persistence for a in alarms) / len(alarms)
        assert live_delay < postmortem_delay / 3


class TestOverprovision:
    """Section 5.4: overprovisioning projection for an 800-GPU month-long job."""

    @pytest.fixture(scope="class")
    def sweep(self):
        return OverprovisionSimulator(OverprovisionConfig(n_trials=3)).sweep(
            recovery_minutes=(5.0, 10.0, 20.0, 40.0),
            availabilities=(0.995, 0.9987),
        )

    def test_paper_anchor_40min_20_percent(self, sweep):
        assert sweep[(40.0, 0.995)] == pytest.approx(0.20, abs=0.03)

    def test_paper_anchor_5min_5_percent(self, sweep):
        assert sweep[(5.0, 0.995)] == pytest.approx(0.05, abs=0.02)

    def test_sweep_monotone_in_recovery(self, sweep):
        values = [sweep[(r, 0.995)] for r in (5.0, 10.0, 20.0, 40.0)]
        assert values == sorted(values)

    def test_availability_improvement_cuts_overprovision(self, sweep):
        # Paper Section 5.5: 99.5% -> 99.9% availability shrinks the spare pool
        # by roughly 4x (20% -> 5%).
        assert sweep[(40.0, 0.995)] / sweep[(40.0, 0.9987)] > 2.2

    def test_simulation_validates_analytic_model(self, sweep):
        for (recovery, availability), simulated in sweep.items():
            analytic = required_overprovision_analytic(
                OverprovisionConfig(recovery_minutes=recovery, availability=availability)
            )
            assert simulated == pytest.approx(analytic, rel=0.3), (recovery, availability)


class TestCounterfactual:
    """Section 5.5: counterfactual resilience improvements by exclusion."""

    @pytest.fixture(scope="class")
    def report(self, paper_study):
        return paper_study.counterfactual().analyze()

    def test_baseline_near_67_node_hours(self, report):
        assert report.baseline_mtbe_node_hours == pytest.approx(67.0, rel=0.12)

    def test_removing_offenders_triples_mtbe(self, report):
        # Paper: 67 -> 190 node-hours (~3x).
        assert report.offender_improvement == pytest.approx(3.0, abs=0.8)
        assert report.without_offenders_mtbe_node_hours == pytest.approx(190.0, rel=0.25)

    def test_hardware_exclusion_adds_roughly_16_percent(self, report):
        assert report.hardware_additional_improvement == pytest.approx(1.16, abs=0.14)
        assert report.without_offenders_and_hw_mtbe_node_hours == pytest.approx(
            223.0, rel=0.25
        )

    def test_availability_reaches_three_nines_territory(self, report):
        assert report.baseline_availability == pytest.approx(0.995, abs=0.003)
        assert report.improved_availability == pytest.approx(0.9987, abs=0.0012)

    def test_few_gpus_removed(self, report):
        # The counterfactual culls a handful of defective parts, not the fleet.
        assert 1 <= len(report.removed_gpus) <= 40


class TestGenerativeCounterfactual:
    """Section 5.5's exclusion arithmetic checked by re-synthesizing the
    world under modified calibrations (defective parts never shipped;
    peripherals hardened) and re-measuring MTBE with the unchanged
    pipeline.  The two routes agreeing validates the paper's reasoning."""

    SCALE = 0.1
    SEED = 17

    def _measure(self, profile):
        dataset = synthesize_delta(
            scale=self.SCALE,
            seed=self.SEED,
            profile=profile,
            config=DeltaDatasetConfig(scale=self.SCALE, seed=self.SEED, with_jobs=False),
            cluster=build_delta_cluster(),
        )
        return DeltaStudy.from_dataset(dataset).error_statistics().overall_mtbe_node_hours()

    @pytest.fixture(scope="class")
    def measured(self):
        return {
            "baseline": self._measure(AMPERE_CALIBRATION),
            "burned_in": self._measure(burned_in_profile(AMPERE_CALIBRATION)),
            "hardened": self._measure(hardened_peripherals_profile(AMPERE_CALIBRATION)),
        }

    def test_baseline_measures_67_hours(self, measured):
        assert measured["baseline"] == pytest.approx(67.0, rel=0.12)

    def test_burn_in_matches_paper_scenario1(self, measured):
        # Paper: 67 -> 190 node-hours (3x) from culling defective parts.
        assert measured["burned_in"] == pytest.approx(190.0, rel=0.25)

    def test_hardening_matches_paper_scenario2(self, measured):
        assert measured["hardened"] == pytest.approx(223.0, rel=0.30)
        assert measured["hardened"] > measured["burned_in"] > measured["baseline"]

    def test_generative_agrees_with_analytic_exclusion(self, measured, paper_study):
        """The two counterfactual routes must land within ~20% of each other."""
        analytic = paper_study.counterfactual().analyze()
        assert measured["burned_in"] == pytest.approx(
            analytic.without_offenders_mtbe_node_hours, rel=0.25
        )
        assert measured["hardened"] == pytest.approx(
            analytic.without_offenders_and_hw_mtbe_node_hours, rel=0.25
        )


class TestH100:
    """Section 6: emerging H100 errors."""

    @pytest.fixture(scope="class")
    def report(self, paper_h100_study):
        return H100Analyzer(paper_h100_study.error_statistics()).report()

    def test_mtbe_4114_node_hours(self, report):
        assert report.mtbe_node_hours == pytest.approx(4_114, rel=0.1)

    def test_event_mix_matches_section6(self, report):
        assert report.counts.get(int(Xid.MMU), 0) == pytest.approx(18, abs=6)
        assert report.dbe_count == pytest.approx(10, abs=3)
        assert report.rrf_count == pytest.approx(5, abs=3)
        assert report.counts.get(int(Xid.CONTAINED), 0) == pytest.approx(9, abs=3)
        assert report.xid136_count == pytest.approx(70, abs=8)

    def test_xid136_most_frequent(self, report):
        assert report.xid136_share > 0.5

    def test_remap_anomaly(self, report):
        assert report.has_remap_anomaly

    def test_h100_mtbe_far_above_ampere(self, report, paper_study):
        ampere = paper_study.error_statistics().overall_mtbe_node_hours()
        # "significantly higher than A100 and A40" — ~60x in the paper.
        assert report.mtbe_node_hours > 20 * ampere
