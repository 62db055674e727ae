"""Cross-cutting system invariants on small random workloads."""

import pytest

from repro.sim.config import SimulationConfig
from repro.sim.runner import run_simulation
from repro.traces.synthetic import (
    SyntheticTraceConfig,
    generate_synthetic_trace_columnar,
)


@pytest.fixture(scope="module")
def small_trace():
    return generate_synthetic_trace_columnar(
        SyntheticTraceConfig(
            num_requests=4000, num_disks=6, write_ratio=0.3, seed=17
        )
    ).to_requests()


class TestEnergyConservation:
    @pytest.mark.parametrize("dpm", ["always_on", "practical", "oracle"])
    def test_per_disk_time_is_conserved(self, small_trace, dpm):
        """Every disk's ledger accounts (almost) exactly the wall-clock
        duration of the run — no time is lost or double-counted."""
        result = run_simulation(
            small_trace, "lru", num_disks=6, cache_blocks=512, dpm=dpm
        )
        for disk in result.disks:
            accounted = disk.account.total_time_s
            # wake delays push service past the nominal end slightly
            assert accounted == pytest.approx(result.duration_s, rel=0.05)

    @pytest.mark.parametrize("dpm", ["always_on", "practical", "oracle"])
    def test_energy_bounded_by_power_envelope(self, small_trace, dpm):
        """Energy lies between all-standby and all-active bounds."""
        result = run_simulation(
            small_trace, "lru", num_disks=6, cache_blocks=512, dpm=dpm
        )
        for disk in result.disks:
            t = disk.account.total_time_s
            e = disk.account.total_energy_j
            assert e >= 2.5 * t * 0.9
            assert e <= 13.5 * t + 160.0 * disk.account.spinups + 1e-6

    def test_dpm_ordering_holds_end_to_end(self, small_trace):
        energies = {
            dpm: run_simulation(
                small_trace, "lru", num_disks=6, cache_blocks=512, dpm=dpm
            ).total_energy_j
            for dpm in ("always_on", "practical", "oracle")
        }
        assert energies["oracle"] <= energies["practical"]
        assert energies["practical"] <= energies["always_on"]
        assert energies["practical"] <= 2 * energies["oracle"]


class TestPolicyEquivalences:
    def test_pa_with_disabled_classifier_is_lru(self, small_trace):
        """alpha=0 means no disk can ever be priority: PA-LRU must make
        byte-identical decisions to LRU."""
        lru = run_simulation(
            small_trace, "lru", num_disks=6, cache_blocks=512
        )
        pa = run_simulation(
            small_trace, "pa-lru", num_disks=6, cache_blocks=512,
            pa_alpha=0.0,
        )
        assert pa.cache_misses == lru.cache_misses
        assert pa.total_energy_j == pytest.approx(lru.total_energy_j)
        assert pa.spinups == lru.spinups

    def test_infinite_cache_dominates_every_policy_on_misses(
        self, small_trace
    ):
        infinite = run_simulation(
            small_trace, "infinite", num_disks=6, cache_blocks=None
        )
        for policy in ("lru", "arc", "mq", "lirs", "belady", "opg"):
            finite = run_simulation(
                small_trace, policy, num_disks=6, cache_blocks=512
            )
            assert infinite.cache_misses <= finite.cache_misses, policy

    def test_belady_miss_optimal_among_all_policies(self, small_trace):
        belady = run_simulation(
            small_trace, "belady", num_disks=6, cache_blocks=512
        )
        for policy in ("lru", "fifo", "clock", "arc", "mq", "lirs", "opg"):
            other = run_simulation(
                small_trace, policy, num_disks=6, cache_blocks=512
            )
            assert belady.cache_misses <= other.cache_misses, policy

    def test_determinism(self, small_trace):
        a = run_simulation(small_trace, "pa-lru", num_disks=6, cache_blocks=512)
        b = run_simulation(small_trace, "pa-lru", num_disks=6, cache_blocks=512)
        assert a.total_energy_j == b.total_energy_j
        assert a.response.mean_s == b.response.mean_s


class TestAllSpeedDesignIntegration:
    def test_runs_end_to_end(self, small_trace):
        config = SimulationConfig(
            num_disks=6, cache_capacity_blocks=512, disk_design="all-speed"
        )
        result = run_simulation(
            small_trace, "lru", num_disks=6, cache_blocks=512, config=config
        )
        assert result.total_energy_j > 0

    def test_kills_the_response_tail(self, small_trace):
        fso = run_simulation(
            small_trace, "lru", num_disks=6, cache_blocks=512
        )
        config = SimulationConfig(
            num_disks=6, cache_capacity_blocks=512, disk_design="all-speed"
        )
        als = run_simulation(
            small_trace, "lru", num_disks=6, cache_blocks=512, config=config
        )
        assert als.response.p99_s <= fso.response.p99_s

    def test_design_validation(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            SimulationConfig(
                num_disks=1, cache_capacity_blocks=8, disk_design="bogus"
            )
        with pytest.raises(ConfigurationError):
            SimulationConfig(
                num_disks=1,
                cache_capacity_blocks=8,
                disk_design="all-speed",
                dpm="oracle",
            )
