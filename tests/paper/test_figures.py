"""Figures 5-9 at paper-shape scale: hardware, NVLink and memory error
propagation, and the job elapsed-time / unavailability distributions."""

import pytest

from repro.cluster import build_delta_cluster
from repro.core.coalesce import coalesce_errors
from repro.core.parsing import parse_syslog
from repro.core.propagation import PropagationAnalyzer
from repro.faults import AMPERE_CALIBRATION, FaultInjector, InjectorConfig
from repro.faults.xid import Xid
from repro.syslog import render_trace
from tests.paper.conftest import PAPER_SCALE


@pytest.fixture(scope="module")
def propagation(paper_study):
    return paper_study.propagation()


@pytest.fixture(scope="module")
def graph(propagation):
    return propagation.analyze()


class TestFigure5:
    def test_gsp_overwhelmingly_self_or_fatal(self, propagation):
        paths = propagation.hardware_paths()
        assert paths["p_gsp_self_or_terminal"] == pytest.approx(0.99, abs=0.02)

    def test_gsp_spills_into_pmu_rarely(self, graph):
        p = graph.probability(Xid.GSP, Xid.PMU_SPI)
        assert 0.0 < p < 0.04  # paper: 0.01 (21 of 2,136 cases)

    def test_gsp_errors_appear_in_isolation(self, graph):
        # Paper: 99% of GSP errors had no preceding error.
        assert graph.isolation_probability(Xid.GSP) > 0.97

    def test_pmu_to_mmu_is_dominant_path(self, graph):
        assert graph.probability(Xid.PMU_SPI, Xid.MMU) == pytest.approx(0.82, abs=0.12)
        assert graph.probability(Xid.PMU_SPI, Xid.PMU_SPI) == pytest.approx(0.18, abs=0.12)

    def test_pmu_to_mmu_propagation_is_fast(self, graph):
        # Close time proximity suggests causality (paper Section 4.4).
        delay = graph.mean_delay(Xid.PMU_SPI, Xid.MMU)
        assert 0.0 < delay < 10.0

    def test_fallen_off_bus_terminal(self, graph):
        assert graph.terminal_probability(Xid.FALLEN_OFF_BUS) > 0.9

    def test_mmu_rarely_propagates_further(self, graph):
        # MMU is the sink of Figure 5's paths, not a source.
        outgoing = sum(p for _, p, _ in graph.successors(Xid.MMU))
        assert outgoing < 0.35


class TestFigure6:
    def test_nvlink_self_recurrence(self, graph):
        assert graph.probability(Xid.NVLINK, Xid.NVLINK) == pytest.approx(0.66, abs=0.08)

    def test_nvlink_inter_gpu_spread(self, graph):
        inter = graph.probability(Xid.NVLINK, Xid.NVLINK, inter=True)
        assert inter == pytest.approx(0.14, abs=0.07)

    def test_nvlink_error_state_fraction(self, graph):
        error_state = graph.terminal_probability(Xid.NVLINK) - graph.probability(
            Xid.NVLINK, Xid.NVLINK, inter=True
        )
        assert error_state == pytest.approx(0.20, abs=0.12)

    def test_most_errors_stay_on_one_gpu(self, propagation):
        involvement = propagation.nvlink_involvement()
        # Paper: 84-86% single-GPU; the calibration trades a few points of this
        # statistic for hitting the Figure-6 inter-GPU edge probability (see
        # DESIGN.md), so the accepted band is 72-92%.
        assert involvement.single_gpu_fraction == pytest.approx(0.82, abs=0.10)

    def test_four_plus_gpu_incidents_exist(self, propagation):
        involvement = propagation.nvlink_involvement()
        share = (
            involvement.errors_in_4plus_gpu_incidents / involvement.total_errors
            if involvement.total_errors
            else 0.0
        )
        assert share == pytest.approx(0.05, abs=0.045)

    def test_nvlink_errors_unpredictable(self, graph):
        # Paper Section 4.4.2: "we found no preceding hardware errors before
        # NVLink errors" — i.e. nothing *else* flows into NVLink; recurrences of
        # the code itself are the only intra-GPU predecessors.
        inflow = sum(
            stats.count
            for (src, dst), stats in graph.intra_edges.items()
            if dst == int(Xid.NVLINK) and src != int(Xid.NVLINK)
        )
        assert inflow <= graph.source_counts.get(int(Xid.NVLINK), 0) * 0.02

    def test_nvlink_mtbe_per_node(self, paper_study):
        stats = paper_study.error_statistics()
        assert stats.mtbe_per_node_hours(int(Xid.NVLINK)) == pytest.approx(1_415, rel=0.15)


class TestFigure7:
    """Rare-event statistics: at sub-full scale the branch probabilities
    carry wide confidence intervals, so the recovery-tree checks pool a
    dedicated larger injection of the memory codes."""

    @pytest.fixture(scope="class")
    def memory_propagation(self):
        """A 4x-paper-scale memory-chain injection for tight branch statistics."""
        injector = FaultInjector(AMPERE_CALIBRATION, InjectorConfig(scale=4.0, seed=13))
        trace = injector.generate(build_delta_cluster())
        memory = trace.events_of(Xid.DBE, Xid.RRE, Xid.RRF, Xid.CONTAINED, Xid.UNCONTAINED)
        # Keep only the low-volume recovery codes; drop offender-burst noise.
        keep = [e for e in memory if e.xid is not Xid.UNCONTAINED or e.chain_pos > 0]
        errors = coalesce_errors(parse_syslog(render_trace(keep, seed=13)))
        return PropagationAnalyzer(errors)

    def test_dbe_remap_success_rate(self, memory_propagation):
        paths = memory_propagation.memory_recovery_paths()
        assert paths["p_dbe_to_rre"] == pytest.approx(0.50, abs=0.08)

    def test_rrf_containment_split(self, memory_propagation):
        paths = memory_propagation.memory_recovery_paths()
        assert paths["p_rrf_to_contained"] == pytest.approx(0.43, abs=0.12)
        assert paths["p_rrf_to_uncontained"] == pytest.approx(0.11, abs=0.08)

    def test_dbe_alleviation_near_70_percent(self, memory_propagation):
        paths = memory_propagation.memory_recovery_paths()
        assert paths["dbe_alleviated"] == pytest.approx(0.706, abs=0.08)

    def test_recovery_chains_are_fast(self, memory_propagation):
        graph = memory_propagation.analyze()
        assert graph.mean_delay(Xid.DBE, Xid.RRE) < 10.0

    def test_uncontained_errors_standalone_in_shared_dataset(self, graph):
        # Figure 7's right side: uncontained errors lack succeeding errors.
        assert graph.probability(Xid.UNCONTAINED, Xid.UNCONTAINED) < 0.1
        assert graph.terminal_probability(Xid.UNCONTAINED) > 0.85

    def test_offender_share_of_uncontained(self, paper_study):
        stats = paper_study.error_statistics()
        # One GPU contributed 99% of uncontained errors (Section 4.4.3).
        assert stats.offender_share(int(Xid.UNCONTAINED), k=1) > 0.95


@pytest.fixture(scope="module")
def availability(paper_study):
    return paper_study.availability()


class TestFigure9a:
    def test_failures_prevalent_in_short_jobs(self, paper_impact):
        histogram = paper_impact.elapsed_histogram()
        short_failed = sum(histogram.gpu_failed[:4])  # < 1,000 minutes
        long_failed = sum(histogram.gpu_failed[4:])
        assert short_failed > 3 * max(long_failed, 1)

    def test_lost_node_hours_order_of_magnitude(self, paper_impact):
        lost = paper_impact.lost_node_hours()
        # Paper: ~7,500 node-hours; tail-dominated, so wide tolerance.
        assert 0.2 * 7_500 * PAPER_SCALE < lost < 6 * 7_500 * PAPER_SCALE


class TestFigure9b:
    def test_long_completers_accumulate_errors(self, paper_impact):
        series = paper_impact.errors_vs_duration()
        # >4,000-minute completed jobs face multiple errors yet finish.
        long_bin = series["completed"][-1][1]
        short_bin = series["completed"][0][1]
        assert long_bin > 0.5
        assert long_bin > 10 * max(short_bin, 0.01)

    def test_some_long_jobs_complete_despite_errors(self, paper_impact):
        histogram = paper_impact.elapsed_histogram(edges_minutes=(4_000, 50_000))
        assert histogram.completed[0] > 0


class TestFigure9c:
    def test_expected_service_time(self, availability):
        dist = availability.unavailability_distribution()
        assert dist["mean_hours"] == pytest.approx(0.3, abs=0.08)

    def test_heavy_tail_reaches_long_reboots(self, availability):
        dist = availability.unavailability_distribution()
        assert dist["max_hours"] > 5.0
        assert dist["p50_hours"] < 0.3

    def test_availability_99_5(self, availability):
        report = availability.report()
        assert report.availability == pytest.approx(0.995, abs=0.003)
        assert report.downtime_minutes_per_day == pytest.approx(7.0, abs=3.5)

    def test_total_downtime_scales(self, availability):
        report = availability.report()
        assert report.total_downtime_node_hours == pytest.approx(
            5_700 * PAPER_SCALE, rel=0.4
        )
