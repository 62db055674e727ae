"""Tests for the simulation configuration."""

import pytest

from repro.errors import ConfigurationError
from repro.power.adaptive import AdaptiveThresholdDPM
from repro.power.dpm import AlwaysOnDPM, OracleDPM, PracticalDPM
from repro.sim.config import SimulationConfig


class TestSimulationConfig:
    def test_defaults(self):
        config = SimulationConfig(num_disks=4, cache_capacity_blocks=100)
        assert config.dpm == "practical"
        assert config.block_size == 8192

    def test_infinite_cache_allowed(self):
        config = SimulationConfig(num_disks=1, cache_capacity_blocks=None)
        assert config.cache_capacity_blocks is None

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(num_disks=0, cache_capacity_blocks=10)
        with pytest.raises(ConfigurationError):
            SimulationConfig(num_disks=1, cache_capacity_blocks=0)
        with pytest.raises(ConfigurationError):
            SimulationConfig(num_disks=1, cache_capacity_blocks=1, dpm="x")
        with pytest.raises(ConfigurationError):
            SimulationConfig(
                num_disks=1, cache_capacity_blocks=1, trace_tail_s=-1.0
            )
        for latency in (-1e-4, float("nan")):
            with pytest.raises(ConfigurationError):
                SimulationConfig(
                    num_disks=1,
                    cache_capacity_blocks=1,
                    cache_hit_latency_s=latency,
                )

    @pytest.mark.parametrize(
        "kind,cls",
        [
            ("practical", PracticalDPM),
            ("oracle", OracleDPM),
            ("always_on", AlwaysOnDPM),
            ("adaptive", AdaptiveThresholdDPM),
        ],
    )
    def test_make_dpm(self, kind, cls, model):
        config = SimulationConfig(
            num_disks=1, cache_capacity_blocks=1, dpm=kind
        )
        assert isinstance(config.make_dpm(model), cls)
