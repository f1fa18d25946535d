"""Tables 1-3 at paper-shape scale: error statistics, job-failure
probability given an XID, and the job distribution."""

import pytest

from repro.faults.calibration import AMPERE_CALIBRATION, PAPER_TABLE2
from repro.faults.xid import Xid
from repro.slurm.workload import SIZE_BUCKETS
from tests.paper.conftest import PAPER_SCALE


class TestTable1:
    @pytest.fixture(scope="class")
    def stats(self, paper_study):
        return paper_study.error_statistics()

    def test_counts_track_paper(self, stats):
        for xid, target in AMPERE_CALIBRATION.scaled_counts(PAPER_SCALE).items():
            if target < 30:
                continue  # rare codes are dominated by sampling noise off full scale
            assert stats.count(int(xid)) == pytest.approx(target, rel=0.15), xid

    def test_overall_mtbe_near_67_node_hours(self, stats):
        assert stats.overall_mtbe_node_hours() == pytest.approx(67.0, rel=0.12)

    def test_uncontained_dominates_then_mmu(self, stats):
        # Paper Section 4.1 (i): uncontained ~61%, MMU ~30%, NVLink ~5%, GSP ~3%.
        total = stats.total_count
        assert stats.count(int(Xid.UNCONTAINED)) / total == pytest.approx(0.61, abs=0.06)
        assert stats.count(int(Xid.MMU)) / total == pytest.approx(0.30, abs=0.05)
        assert stats.count(int(Xid.NVLINK)) / total == pytest.approx(0.05, abs=0.02)
        assert stats.count(int(Xid.GSP)) / total == pytest.approx(0.034, abs=0.015)

    def test_memory_over_30x_more_reliable(self, stats):
        # The headline comparison; "over 30x" with sampling slack.
        assert stats.memory_vs_hardware_ratio() > 15

    def test_persistence_shape_per_code(self, stats):
        for xid, cal in AMPERE_CALIBRATION.xids.items():
            summary = stats.persistence_summary(int(xid))
            if summary.count < 50:
                continue
            assert summary.p50 == pytest.approx(cal.paper_persistence_p50, rel=0.35), xid
            assert summary.mean == pytest.approx(cal.paper_persistence_mean, rel=0.45), xid

    def test_uncontained_mean_exceeds_p95(self, stats):
        summary = stats.persistence_summary(int(Xid.UNCONTAINED))
        assert summary.mean > summary.p95


class TestTable2:
    @pytest.fixture(scope="class")
    def rows(self, paper_impact):
        return {r.xid: r for r in paper_impact.table2()}

    def test_mmu_failure_probability(self, rows):
        assert rows[int(Xid.MMU)].failure_probability == pytest.approx(0.5867, abs=0.08)

    def test_hard_codes_always_fatal(self, rows):
        # GSP / RRF / uncontained: no application-level handling exists.
        for xid in (Xid.GSP, Xid.UNCONTAINED):
            row = rows.get(int(xid))
            if row and row.jobs_encountering >= 3:
                assert row.failure_probability > 0.9, xid

    def test_nvlink_and_mmu_are_the_survivable_codes(self, rows):
        # Paper Section 5.3: only NVLink and MMU errors are sometimes handled.
        assert rows[int(Xid.MMU)].failure_probability < 0.8
        nvlink = rows.get(int(Xid.NVLINK))
        if nvlink and nvlink.jobs_encountering >= 5:
            assert nvlink.failure_probability < 0.95

    def test_total_gpu_failed_scales_with_paper(self, paper_impact):
        total = paper_impact.total_gpu_failed()
        assert total == pytest.approx(4_322 * PAPER_SCALE, rel=0.35)

    def test_mmu_dominates_gpu_failed_jobs(self, paper_impact):
        rows = paper_impact.table2()
        assert rows[0].xid == int(Xid.MMU)  # sorted by failed-job count

    def test_success_rate_near_paper(self, paper_impact):
        assert paper_impact.success_rate() == pytest.approx(0.7468, abs=0.01)

    def test_encounter_ordering_matches_paper(self, rows):
        # Encounter volume ordering: MMU >> uncontained >> the rest.
        mmu = rows[int(Xid.MMU)].jobs_encountering
        assert mmu == pytest.approx(PAPER_TABLE2[Xid.MMU][1] * PAPER_SCALE, rel=0.3)
        for xid in (Xid.UNCONTAINED, Xid.GSP, Xid.NVLINK):
            row = rows.get(int(xid))
            if row is not None:
                assert row.jobs_encountering < mmu


class TestTable3:
    @pytest.fixture(scope="class")
    def rows(self, paper_impact):
        return {r.label: r for r in paper_impact.table3()}

    def test_count_shares_match_paper(self, rows):
        paper = {b.label: b.count_share for b in SIZE_BUCKETS}
        for label in ("1", "2-4", "4-8", "8-32"):
            assert rows[label].share == pytest.approx(paper[label], abs=0.015), label

    def test_elapsed_medians_match_paper(self, rows):
        paper = {b.label: b.p50_minutes for b in SIZE_BUCKETS}
        for label in ("1", "2-4", "8-32"):
            assert rows[label].p50_minutes == pytest.approx(paper[label], rel=0.25), label

    def test_elapsed_means_match_paper(self, rows):
        paper = {b.label: b.mean_minutes for b in SIZE_BUCKETS}
        for label in ("1", "2-4", "8-32"):
            assert rows[label].mean_minutes == pytest.approx(paper[label], rel=0.35), label

    def test_walltime_cap_visible_in_multi_gpu_p99(self, rows):
        # Multi-GPU queues pile up at the 2,880-minute cap.
        assert rows["2-4"].p99_minutes == pytest.approx(2_880.0, rel=0.02)

    def test_single_gpu_jobs_dominate_gpu_hours_less_than_count(self, rows):
        # 70% of jobs are single-GPU but they carry a much smaller share of
        # GPU-hours (Table 3's hour columns).
        total_hours = sum(r.ml_gpu_hours + r.non_ml_gpu_hours for r in rows.values())
        single_hours = rows["1"].ml_gpu_hours + rows["1"].non_ml_gpu_hours
        assert rows["1"].share > 0.65
        assert single_hours / total_hours < 0.55

    def test_non_ml_hours_exceed_ml_hours(self, rows):
        # Paper totals: ~1.0M ML vs ~8.1M non-ML GPU-hours.
        ml = sum(r.ml_gpu_hours for r in rows.values())
        non_ml = sum(r.non_ml_gpu_hours for r in rows.values())
        assert non_ml > 3 * ml

    def test_largest_jobs_rare(self, rows):
        assert rows["128-256"].count + rows["256+"].count < rows["8-32"].count
