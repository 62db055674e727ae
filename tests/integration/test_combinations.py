"""Integration of feature combinations the unit tests cover separately.

The pinning of WTDU's logged blocks, the offline policies' future
knowledge, the PA wrapper, and the prefetcher all touch the cache's
eviction path — these tests run the *combinations* end-to-end.
"""

import pytest

from repro.sim.runner import run_simulation
from repro.traces.synthetic import (
    SyntheticTraceConfig,
    generate_synthetic_trace_columnar,
)


@pytest.fixture(scope="module")
def writey_trace():
    """A write-heavy workload that exercises WTDU's pinning."""
    return generate_synthetic_trace_columnar(
        SyntheticTraceConfig(
            num_requests=3000,
            num_disks=5,
            write_ratio=0.6,
            mean_interarrival_s=1.0,  # sparse: disks park, WTDU defers
            seed=53,
        )
    ).to_requests()


class TestOfflinePoliciesWithWTDU:
    """Offline policies must survive pinned-victim re-insertion."""

    @pytest.mark.parametrize("policy", ["belady", "opg"])
    def test_runs_to_completion(self, writey_trace, policy):
        result = run_simulation(
            writey_trace,
            policy,
            num_disks=5,
            cache_blocks=128,
            write_policy="wtdu",
            log_region_blocks=64,
        )
        assert result.total_energy_j > 0
        # WTDU kept persistency: nothing volatile-only at the end that
        # is not covered by the log (pending dirty == logged blocks)
        assert result.cache_accesses == 3000

    def test_belady_remains_miss_minimal_under_pinning(self, writey_trace):
        belady = run_simulation(
            writey_trace, "belady", num_disks=5, cache_blocks=128,
            write_policy="wtdu", log_region_blocks=64,
        )
        lru = run_simulation(
            writey_trace, "lru", num_disks=5, cache_blocks=128,
            write_policy="wtdu", log_region_blocks=64,
        )
        # pinning perturbs both equally; Belady still must not lose
        assert belady.cache_misses <= lru.cache_misses


class TestPAWithEverything:
    def test_pa_lru_with_wtdu_and_prefetch(self, writey_trace):
        result = run_simulation(
            writey_trace,
            "pa-lru",
            num_disks=5,
            cache_blocks=128,
            write_policy="wtdu",
            prefetch_depth=4,
            pa_epoch_s=120.0,
        )
        assert result.total_energy_j > 0
        assert result.prefetch_admissions >= 0

    def test_pa_wrapped_arc_with_wbeu(self, writey_trace):
        result = run_simulation(
            writey_trace,
            "pa-arc",
            num_disks=5,
            cache_blocks=128,
            write_policy="wbeu",
            pa_epoch_s=120.0,
        )
        assert result.total_energy_j > 0

    def test_all_speed_design_with_pa_and_writes(self, writey_trace):
        from repro.sim.config import SimulationConfig

        config = SimulationConfig(
            num_disks=5, cache_capacity_blocks=128, disk_design="all-speed"
        )
        result = run_simulation(
            writey_trace,
            "pa-lru",
            num_disks=5,
            cache_blocks=128,
            write_policy="wbeu",
            config=config,
            pa_epoch_s=120.0,
        )
        assert result.total_energy_j > 0


class TestPrefetchEvictionInterplay:
    def test_prefetch_admissions_can_evict_dirty_blocks(self):
        """Prefetched blocks displacing dirty blocks must persist them."""
        trace = generate_synthetic_trace_columnar(
            SyntheticTraceConfig(
                num_requests=2000,
                num_disks=3,
                write_ratio=0.5,
                mean_interarrival_s=2.0,
                seed=59,
            )
        ).to_requests()
        result = run_simulation(
            trace,
            "lru",
            num_disks=3,
            cache_blocks=32,  # tiny: admissions force evictions
            write_policy="write-back",
            prefetch_depth=8,
        )
        assert result.prefetch_admissions > 0
        # conservation: every write either reached a disk or is dirty
        write_accesses = 2000 - result.disk_reads - result.cache_hits
        assert result.disk_writes + result.pending_dirty > 0