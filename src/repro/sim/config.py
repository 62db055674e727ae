"""Simulation configuration."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.power.adaptive import AdaptiveThresholdDPM
from repro.power.dpm import (
    AlwaysOnDPM,
    DiskPowerManager,
    OracleDPM,
    PracticalDPM,
)
from repro.power.modes import PowerModel
from repro.power.specs import DEFAULT_NAP_RPMS, DiskSpec, ULTRASTAR_36Z15
from repro.units import DEFAULT_BLOCK_SIZE

#: Recognized DPM scheme names.
DPM_KINDS = ("practical", "oracle", "always_on", "adaptive")


@dataclass(frozen=True)
class SimulationConfig:
    """Everything about a run except the trace and the policies.

    Defaults reproduce the paper's setup: IBM Ultrastar 36Z15 disks
    with four NAP modes, Practical (2-competitive threshold) DPM, 8 KiB
    blocks.
    """

    num_disks: int
    cache_capacity_blocks: int | None
    dpm: str = "practical"
    spec: DiskSpec = ULTRASTAR_36Z15
    nap_rpms: tuple[float, ...] = DEFAULT_NAP_RPMS
    block_size: int = DEFAULT_BLOCK_SIZE
    #: Latency of a storage-cache hit as seen by the client.
    cache_hit_latency_s: float = 0.2e-3
    #: Idle time accounted after the last request (all disks wind down).
    trace_tail_s: float = 60.0
    #: Multi-speed disk design (Section 2.1): ``"full-speed-only"`` —
    #: the paper's choice, requests serve only at maximum RPM after a
    #: spin-up — or ``"all-speed"`` — the Carrera/Bianchini (DRPM)
    #: design servicing at reduced speeds (requires practical DPM).
    disk_design: str = "full-speed-only"

    def __post_init__(self) -> None:
        if self.num_disks < 1:
            raise ConfigurationError("num_disks must be >= 1")
        if (
            self.cache_capacity_blocks is not None
            and self.cache_capacity_blocks < 1
        ):
            raise ConfigurationError(
                "cache_capacity_blocks must be >= 1 or None (infinite)"
            )
        if self.dpm not in DPM_KINDS:
            raise ConfigurationError(
                f"dpm must be one of {DPM_KINDS}, got {self.dpm!r}"
            )
        if self.trace_tail_s < 0:
            raise ConfigurationError("trace_tail_s must be >= 0")
        if not self.cache_hit_latency_s >= 0:
            # the fused loops answer a write-back write with the hit
            # latency itself, the reference with max(it, 0.0)
            raise ConfigurationError("cache_hit_latency_s must be >= 0")
        if self.disk_design not in ("full-speed-only", "all-speed"):
            raise ConfigurationError(
                "disk_design must be 'full-speed-only' or 'all-speed', "
                f"got {self.disk_design!r}"
            )
        if self.disk_design == "all-speed" and self.dpm not in (
            "practical",
            "adaptive",
        ):
            raise ConfigurationError(
                "the all-speed disk design tracks the threshold ladder "
                "and therefore requires threshold-based DPM "
                "('practical' or 'adaptive')"
            )

    def make_dpm(self, model: PowerModel) -> DiskPowerManager:
        """Build one DPM instance of the configured kind."""
        if self.dpm == "practical":
            return PracticalDPM(model)
        if self.dpm == "oracle":
            return OracleDPM(model)
        if self.dpm == "adaptive":
            return AdaptiveThresholdDPM(model)
        return AlwaysOnDPM(model)
