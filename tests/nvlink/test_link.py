"""NVLink channel: replay semantics and collective survival."""

import numpy as np
import pytest

from repro.nvlink.link import LinkConfig, NVLinkChannel, TransmitOutcome
from repro.nvlink.transfer import simulate_collective


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


class TestChannel:
    def test_clean_link_delivers_everything(self, rng):
        channel = NVLinkChannel(LinkConfig(bit_error_rate=0.0))
        for _ in range(50):
            assert channel.transmit(b"x" * 256, rng) is TransmitOutcome.DELIVERED
        assert channel.stats.crc_errors_detected == 0
        assert channel.stats.goodput == 1.0

    def test_noisy_link_retries_and_delivers(self, rng):
        channel = NVLinkChannel(LinkConfig(bit_error_rate=2e-4, max_replays=64))
        outcomes = [channel.transmit(b"y" * 256, rng) for _ in range(200)]
        assert all(o is TransmitOutcome.DELIVERED for o in outcomes)
        assert channel.stats.crc_errors_detected > 0
        assert channel.stats.replays == channel.stats.crc_errors_detected
        assert channel.stats.goodput < 1.0

    def test_retry_disabled_fails_on_first_crc_error(self, rng):
        channel = NVLinkChannel(
            LinkConfig(bit_error_rate=0.05, retry_enabled=False)
        )
        outcomes = [channel.transmit(b"z" * 64, rng) for _ in range(50)]
        assert TransmitOutcome.FATAL in outcomes
        assert channel.stats.replays == 0

    def test_hopeless_link_exhausts_replays(self, rng):
        channel = NVLinkChannel(LinkConfig(bit_error_rate=0.2, max_replays=3))
        assert channel.transmit(b"w" * 256, rng) is TransmitOutcome.FATAL
        assert channel.stats.fatal_errors == 1

    def test_transfer_train(self, rng):
        channel = NVLinkChannel(LinkConfig(bit_error_rate=0.0))
        assert channel.transfer([b"a" * 8] * 10, rng) is TransmitOutcome.DELIVERED
        assert channel.stats.packets_sent == 10

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LinkConfig(bit_error_rate=1.5)
        with pytest.raises(ValueError):
            LinkConfig(packet_bytes=0)


class TestCollective:
    def test_crc_retry_masks_link_errors_from_jobs(self):
        # The paper's finding (iii): NVLink errors occur, CRC+replay absorb
        # them, jobs complete.
        result = simulate_collective(
            config=LinkConfig(bit_error_rate=1e-5), n_jobs=60, seed=3
        )
        assert result.total_crc_errors > 50
        assert result.survival_rate == 1.0
        assert result.jobs_with_errors_that_survived == 1.0
        # Retries cost bandwidth, not jobs.
        assert 0.95 < result.mean_goodput <= 1.0

    def test_without_retry_every_error_kills_the_job(self):
        result = simulate_collective(
            config=LinkConfig(bit_error_rate=1e-5, retry_enabled=False),
            n_jobs=60,
            seed=3,
        )
        assert result.jobs_with_errors_that_survived == 0.0
        assert result.survival_rate < 0.5

    def test_degraded_link_eventually_fatal_even_with_retry(self):
        result = simulate_collective(
            config=LinkConfig(bit_error_rate=3e-3, max_replays=2),
            n_jobs=30,
            seed=3,
        )
        assert result.survival_rate < 0.5
        assert result.total_fatal > 0

    def test_goodput_degrades_with_error_rate(self):
        clean = simulate_collective(
            config=LinkConfig(bit_error_rate=0.0), n_jobs=10, seed=3
        )
        noisy = simulate_collective(
            config=LinkConfig(bit_error_rate=3e-4, max_replays=64),
            n_jobs=10,
            seed=3,
        )
        assert clean.mean_goodput == 1.0
        assert noisy.mean_goodput < clean.mean_goodput
