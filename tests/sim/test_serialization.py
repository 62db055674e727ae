"""JSON round-trips for simulation results (campaign store contract)."""

import json

import pytest

from repro.power.accounting import EnergyAccount
from repro.sim.results import DiskReport, ResponseStats, SimulationResult
from repro.sim.runner import run_simulation
from repro.traces.synthetic import (
    SyntheticTraceConfig,
    generate_synthetic_trace_columnar,
)


@pytest.fixture(scope="module")
def result():
    trace = generate_synthetic_trace_columnar(
        SyntheticTraceConfig(num_requests=400, num_disks=3, seed=13)
    ).to_requests()
    return run_simulation(trace, "lru", num_disks=3, cache_blocks=64)


def roundtrip(obj, cls):
    """to_dict -> JSON text -> from_dict."""
    return cls.from_dict(json.loads(json.dumps(obj.to_dict())))


class TestResponseStats:
    def test_roundtrip(self):
        stats = ResponseStats.from_samples([0.001, 0.005, 0.2, 0.004])
        assert roundtrip(stats, ResponseStats) == stats

    def test_empty(self):
        stats = ResponseStats.from_samples([])
        assert roundtrip(stats, ResponseStats) == stats


class TestEnergyAccount:
    def test_roundtrip_restores_int_mode_keys(self):
        account = EnergyAccount()
        account.add_mode_residency(0, 10.0, 135.0)
        account.add_mode_residency(4, 2.5, 6.25)
        account.add_service(0.5, 12.0)
        restored = roundtrip(account, EnergyAccount)
        assert restored == account
        assert set(restored.mode_time_s) == {0, 4}

    def test_roundtrip_empty(self):
        assert roundtrip(EnergyAccount(), EnergyAccount) == EnergyAccount()


class TestSimulationResult:
    def test_full_roundtrip_is_exact(self, result):
        restored = roundtrip(result, SimulationResult)
        assert restored == result
        # nested structures survive with types intact
        assert isinstance(restored.response, ResponseStats)
        assert all(isinstance(d, DiskReport) for d in restored.disks)
        assert all(
            isinstance(d.account, EnergyAccount) for d in restored.disks
        )

    def test_derived_metrics_survive(self, result):
        restored = roundtrip(result, SimulationResult)
        assert restored.total_energy_j == result.total_energy_j
        assert restored.hit_ratio == result.hit_ratio
        assert restored.cold_miss_fraction == result.cold_miss_fraction

    def test_mode_keys_are_ints_after_roundtrip(self, result):
        restored = roundtrip(result, SimulationResult)
        for report in restored.disks:
            assert all(
                isinstance(m, int) for m in report.account.mode_time_s
            )
