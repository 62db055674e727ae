"""Tests for the three workload generators (Table 2 / Table 3 shapes)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.traces.cello import CelloTraceConfig, generate_cello_trace_columnar
from repro.traces.oltp import OLTPTraceConfig, generate_oltp_trace_columnar
from repro.traces.record import validate_trace
from repro.traces.stats import characterize
from repro.traces.synthetic import (
    SyntheticTraceConfig,
    generate_synthetic_trace_columnar,
)


@pytest.fixture(scope="module")
def small_oltp():
    config = OLTPTraceConfig(duration_s=600.0)
    return generate_oltp_trace_columnar(config).to_requests()


@pytest.fixture(scope="module")
def small_cello():
    config = CelloTraceConfig(duration_s=60.0)
    return generate_cello_trace_columnar(config).to_requests()


@pytest.fixture(scope="module")
def small_synth():
    config = SyntheticTraceConfig(num_requests=5000)
    return generate_synthetic_trace_columnar(config).to_requests()


class TestSyntheticGenerator:
    def test_request_count(self, small_synth):
        assert len(small_synth) == 5000

    def test_time_ordered(self, small_synth):
        validate_trace(small_synth)

    def test_write_ratio_near_default(self, small_synth):
        stats = characterize(small_synth)
        assert stats.write_fraction == pytest.approx(0.2, abs=0.03)

    def test_mean_interarrival_near_default(self, small_synth):
        stats = characterize(small_synth)
        assert stats.mean_interarrival_s == pytest.approx(0.25, rel=0.1)

    def test_disks_within_range(self, small_synth):
        assert {r.disk for r in small_synth} <= set(range(20))

    def test_deterministic_given_seed(self):
        config = SyntheticTraceConfig(num_requests=200, seed=77)
        assert (
            generate_synthetic_trace_columnar(config).to_requests()
            == generate_synthetic_trace_columnar(config).to_requests()
        )

    def test_seed_changes_trace(self):
        # Compare request lists: ColumnarTrace has no __eq__, so != on
        # two traces would compare identity and pass vacuously.
        a = generate_synthetic_trace_columnar(
            SyntheticTraceConfig(num_requests=200, seed=1)
        ).to_requests()
        b = generate_synthetic_trace_columnar(
            SyntheticTraceConfig(num_requests=200, seed=2)
        ).to_requests()
        assert a != b

    def test_reuse_controls_distinct_blocks(self):
        high = generate_synthetic_trace_columnar(
            SyntheticTraceConfig(num_requests=3000, reuse_probability=0.9, seed=3)
        ).to_requests()
        low = generate_synthetic_trace_columnar(
            SyntheticTraceConfig(num_requests=3000, reuse_probability=0.1, seed=3)
        ).to_requests()
        assert (
            characterize(high).distinct_blocks
            < characterize(low).distinct_blocks
        )

    def test_pareto_variant(self):
        trace = generate_synthetic_trace_columnar(
            SyntheticTraceConfig(
                num_requests=2000, arrival_process="pareto", seed=4
            )
        ).to_requests()
        assert len(trace) == 2000
        validate_trace(trace)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            SyntheticTraceConfig(num_requests=0)
        with pytest.raises(ConfigurationError):
            SyntheticTraceConfig(write_ratio=1.5)


class TestOLTPGenerator:
    def test_table2_externals(self, small_oltp):
        stats = characterize(small_oltp)
        assert stats.disks == 21
        assert stats.write_fraction == pytest.approx(0.22, abs=0.03)
        assert stats.mean_interarrival_s == pytest.approx(0.099, rel=0.15)

    def test_time_ordered(self, small_oltp):
        validate_trace(small_oltp)

    def test_hot_cool_rate_skew(self, small_oltp):
        config = OLTPTraceConfig(duration_s=600.0)
        from collections import Counter

        counts = Counter(r.disk for r in small_oltp)
        hot_mean = np.mean([counts[d] for d in range(config.num_hot_disks)])
        cool_mean = np.mean(
            [counts[d] for d in range(config.num_hot_disks, 21)]
        )
        assert hot_mean > 5 * cool_mean

    def test_cool_footprint_bounded(self, small_oltp):
        config = OLTPTraceConfig(duration_s=600.0)
        cool_disk = config.num_disks - 1
        blocks = {r.block for r in small_oltp if r.disk == cool_disk}
        assert len(blocks) <= config.cool_footprint_blocks

    def test_deterministic(self):
        config = OLTPTraceConfig(duration_s=120.0, seed=5)
        assert (
            generate_oltp_trace_columnar(config).to_requests()
            == generate_oltp_trace_columnar(config).to_requests()
        )

    def test_bad_band_split_rejected(self):
        with pytest.raises(ConfigurationError):
            OLTPTraceConfig(num_hot_disks=21)

    def test_cool_budget_overflow_rejected(self):
        with pytest.raises(ConfigurationError):
            OLTPTraceConfig(cool_disk_rate_hz=100.0)


class TestCelloGenerator:
    def test_table2_externals(self, small_cello):
        stats = characterize(small_cello)
        assert stats.disks == 19
        assert stats.write_fraction == pytest.approx(0.38, abs=0.04)
        assert stats.mean_interarrival_s == pytest.approx(0.00561, rel=0.15)

    def test_time_ordered(self, small_cello):
        validate_trace(small_cello)

    def test_cold_dominated(self, small_cello):
        stats = characterize(small_cello)
        assert stats.cold_fraction > 0.5  # the 64%-cold regime

    def test_rate_skew_across_disks(self, small_cello):
        from collections import Counter

        counts = Counter(r.disk for r in small_cello)
        assert counts[0] > 10 * counts[18]

    def test_deterministic(self):
        config = CelloTraceConfig(duration_s=10.0, seed=9)
        assert (
            generate_cello_trace_columnar(config).to_requests()
            == generate_cello_trace_columnar(config).to_requests()
        )

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            CelloTraceConfig(reuse_probability=2.0)
        with pytest.raises(ConfigurationError):
            CelloTraceConfig(rate_skew=0.0)
