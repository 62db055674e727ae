"""The multi-disk storage backend.

:class:`DiskArray` owns one :class:`~repro.disk.disk.SimulatedDisk` per
spindle and provides array-level submission, finalization, and rolled-up
energy accounting. Blocks are addressed as ``(disk_id, block)`` — the
paper's traces are already per-disk, so no striping layer is imposed.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from repro.disk.disk import DiskResponse, SimulatedDisk
from repro.errors import ConfigurationError
from repro.power.accounting import EnergyAccount
from repro.power.dpm import DiskPowerManager
from repro.power.modes import PowerModel
from repro.power.specs import DiskSpec, build_power_model
from repro.snapshot import expect_length, load_state, state_of
from repro.units import DEFAULT_BLOCK_SIZE

#: Signature of the factory that builds one DPM instance per disk.
DPMFactory = Callable[[PowerModel], DiskPowerManager]


class DiskArray:
    """A homogeneous array of simulated disks.

    Args:
        num_disks: Number of spindles.
        spec: Shared datasheet spec.
        dpm_factory: Called once per disk with the (shared) power model;
            must return a fresh DPM instance, since DPM may be stateful.
        power_model: Optional pre-built model (defaults to the spec's
            multi-speed model).
        block_size: Logical block size in bytes.
        start_time: Simulation epoch for every disk.
        fault_injector: Optional shared
            :class:`~repro.faults.injector.FaultInjector`; one injector
            serves the whole array so the fault sequence is a function
            of the plan's seed and the request order alone.
    """

    def __init__(
        self,
        num_disks: int,
        spec: DiskSpec,
        dpm_factory: DPMFactory,
        power_model: PowerModel | None = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        start_time: float = 0.0,
        disk_cls: type[SimulatedDisk] = SimulatedDisk,
        probe=None,
        fault_injector=None,
    ) -> None:
        if num_disks < 1:
            raise ConfigurationError(f"num_disks must be >= 1, got {num_disks}")
        self.spec = spec
        self.power_model = power_model or build_power_model(spec)
        self.block_size = block_size
        self.fault_injector = fault_injector
        self._disks = [
            disk_cls(
                disk_id=i,
                spec=spec,
                power_model=self.power_model,
                dpm=dpm_factory(self.power_model),
                block_size=block_size,
                start_time=start_time,
                probe=probe,
                faults=fault_injector,
            )
            for i in range(num_disks)
        ]

    # -- container protocol --------------------------------------------------

    def __len__(self) -> int:
        return len(self._disks)

    def __iter__(self) -> Iterator[SimulatedDisk]:
        return iter(self._disks)

    def __getitem__(self, disk_id: int) -> SimulatedDisk:
        return self._disks[disk_id]

    @property
    def disks(self) -> Sequence[SimulatedDisk]:
        return self._disks

    # -- operation -------------------------------------------------------------

    def submit(
        self,
        disk_id: int,
        arrival: float,
        block: int,
        nblocks: int = 1,
        is_write: bool = False,
    ) -> DiskResponse:
        """Submit one request to a member disk."""
        return self._disks[disk_id].submit(arrival, block, nblocks, is_write)

    def submit_quick(
        self, disk_id: int, arrival: float, block: int, is_write: bool = False
    ) -> tuple[float, float]:
        """Single-block fast path: ``(response_time_s, wake_delay_s)``."""
        return self._disks[disk_id].submit_quick(arrival, block, is_write)

    def finalize(self, end_time: float) -> None:
        """Close out trailing idle gaps on every disk."""
        for disk in self._disks:
            disk.finalize(end_time)

    # -- snapshots (see repro.snapshot) -------------------------------------------

    def state_dict(self) -> dict:
        return {"disks": [state_of(disk) for disk in self._disks]}

    def load_state_dict(self, state: dict) -> None:
        disks = list(state["disks"])
        expect_length("disks", disks, len(self._disks))
        for disk, disk_state in zip(self._disks, disks):
            load_state(disk, disk_state)

    # -- reporting ----------------------------------------------------------------

    def total_account(self) -> EnergyAccount:
        """Array-wide energy ledger (sum over disks)."""
        total = EnergyAccount()
        for disk in self._disks:
            total.merge(disk.account)
        return total

    @property
    def total_energy_j(self) -> float:
        return sum(d.account.total_energy_j for d in self._disks)

    def mean_interarrivals(self) -> dict[int, float]:
        """Per-disk mean request inter-arrival time (Figure 7b)."""
        return {d.disk_id: d.mean_interarrival_s for d in self._disks}
