"""The simulated disk: FIFO service, power integration, accounting.

:class:`SimulatedDisk` is trace-driven and lazy: it does nothing until a
request arrives, at which point the idle gap since its last activity is
known and handed to the DPM scheme, which reports the energy spent, the
power-mode residency, and (for online DPM) the spin-up delay the request
must absorb before service can start.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

from repro.disk.geometry import DiskGeometry
from repro.disk.seek import SeekModel
from repro.disk.timing import ServiceBreakdown, ServiceTimeModel
from repro.errors import SimulationError
from repro.observe.events import (
    DiskFinalized,
    DiskService,
    DiskSpinDown,
    DiskSpinUp,
    StateDwell,
)
from repro.power.accounting import EnergyAccount
from repro.power.dpm import DiskPowerManager, IdleOutcome
from repro.power.modes import PowerModel
from repro.power.specs import DiskSpec
from repro.snapshot import load_state, state_of
from repro.units import DEFAULT_BLOCK_SIZE, TIME_EPS


@dataclass(frozen=True, slots=True)
class DiskResponse:
    """Timing outcome of one disk request."""

    arrival: float
    start_service: float
    finish: float
    wake_delay_s: float
    breakdown: ServiceBreakdown

    @property
    def response_time_s(self) -> float:
        """Queueing + wake + service latency seen by the requester."""
        return self.finish - self.arrival


class SimulatedDisk:
    """One disk: geometry, timing, FIFO queue, DPM, energy ledger.

    Requests must be submitted in non-decreasing arrival order (the
    engine processes the trace chronologically). A request arriving
    while the disk is busy queues FIFO; one arriving after an idle gap
    triggers the DPM reconstruction of that gap.

    Args:
        disk_id: Identifier used in trace records and reports.
        spec: Datasheet description (capacity, timing, power).
        power_model: Multi-speed mode ladder for this disk.
        dpm: Power-management scheme instance (not shared across disks —
            stateless schemes may be shared, but a fresh instance per
            disk is the safe default).
        block_size: Logical block size in bytes.
        start_time: Simulation epoch; the disk is idle at full speed at
            this instant.
        probe: Optional event hook (see :mod:`repro.observe`); receives
            :class:`StateDwell` / :class:`DiskSpinDown` /
            :class:`DiskSpinUp` / :class:`DiskService` /
            :class:`DiskFinalized` events carrying exactly the joules
            recorded in the :class:`EnergyAccount`.
        faults: Optional :class:`~repro.faults.injector.FaultInjector`
            consulted once per request; injected faults are latency-only
            (retry/backoff delays the request, the energy ledger is
            untouched), so a ``faults=None`` run is bit-identical.
    """

    def __init__(
        self,
        disk_id: int,
        spec: DiskSpec,
        power_model: PowerModel,
        dpm: DiskPowerManager,
        block_size: int = DEFAULT_BLOCK_SIZE,
        start_time: float = 0.0,
        probe=None,
        faults=None,
    ) -> None:
        self.disk_id = disk_id
        self.spec = spec
        self.power_model = power_model
        self.dpm = dpm
        self.probe = probe
        self.faults = faults
        self.geometry = DiskGeometry(
            capacity_bytes=spec.capacity_bytes,
            block_size=block_size,
            heads=spec.heads,
            sectors_per_track=spec.sectors_per_track,
        )
        self.timing = ServiceTimeModel(
            geometry=self.geometry,
            seek_model=SeekModel.from_spec(spec, self.geometry.cylinders),
            rpm=spec.rpm_max,
        )
        self.account = EnergyAccount()
        self._busy_until = start_time
        self._cylinder = self.geometry.cylinders // 2
        self._last_arrival: float | None = None
        self._interarrival_sum = 0.0
        self._arrivals = 0
        self._finalized = False

    # -- state queries -----------------------------------------------------

    @property
    def busy_until(self) -> float:
        """Time the disk finishes its current work (idle-gap anchor)."""
        return self._busy_until

    def is_parked(self, at_time: float) -> bool:
        """Whether the disk is below full speed at ``at_time``.

        Used by the write policies ("if the destination disk is in a low
        power mode, write to the log instead"). For online DPM this
        walks the threshold schedule; for Oracle DPM it is the
        what-would-it-have-chosen approximation.
        """
        if at_time <= self._busy_until:
            return False
        return self.dpm.mode_after_idle(at_time - self._busy_until) != 0

    @property
    def mean_interarrival_s(self) -> float:
        """Mean gap between request arrivals (Figure 7b statistic)."""
        if self._arrivals < 2:
            return float("inf")
        return self._interarrival_sum / (self._arrivals - 1)

    @property
    def request_count(self) -> int:
        return self._arrivals

    # -- snapshots (see repro.snapshot) -------------------------------------

    def state_dict(self) -> dict:
        return {
            "account": state_of(self.account),
            "dpm": state_of(self.dpm),
            "busy_until": self._busy_until,
            "cylinder": self._cylinder,
            "last_arrival": self._last_arrival,
            "interarrival_sum": self._interarrival_sum,
            "arrivals": self._arrivals,
            "finalized": self._finalized,
        }

    def load_state_dict(self, state: dict) -> None:
        load_state(self.account, state["account"])
        load_state(self.dpm, state["dpm"])
        last = state["last_arrival"]
        self._busy_until = float(state["busy_until"])
        self._cylinder = int(state["cylinder"])
        self._last_arrival = None if last is None else float(last)
        self._interarrival_sum = float(state["interarrival_sum"])
        self._arrivals = int(state["arrivals"])
        self._finalized = bool(state["finalized"])

    # -- operation ----------------------------------------------------------

    def submit(
        self, arrival: float, block: int, nblocks: int = 1, is_write: bool = False
    ) -> DiskResponse:
        """Service one request; returns its timing.

        Raises:
            SimulationError: On out-of-order arrivals or use after
                :meth:`finalize`.
        """
        if self._finalized:
            raise SimulationError(f"disk {self.disk_id} already finalized")
        if self._last_arrival is not None:
            if arrival < self._last_arrival - TIME_EPS:
                raise SimulationError(
                    f"disk {self.disk_id}: arrival {arrival} precedes "
                    f"previous arrival {self._last_arrival}"
                )
            self._interarrival_sum += max(0.0, arrival - self._last_arrival)
        self._last_arrival = arrival
        self._arrivals += 1

        wake_delay = 0.0
        if arrival > self._busy_until + TIME_EPS:
            outcome = self.dpm.process_idle(arrival - self._busy_until, wake=True)
            self.account.add_idle(outcome)
            if self.probe is not None:
                self._publish_idle(arrival, outcome)
            wake_delay = outcome.wake_delay_s
            effective = arrival
        else:
            effective = self._busy_until

        if self.faults is not None:
            wake_delay += self.faults.delays(
                self.disk_id, arrival, woke=wake_delay > 0.0
            )
        start_service = effective + wake_delay
        breakdown, end_cyl = self.timing.service(
            start_service, self._cylinder, block, nblocks
        )
        self._cylinder = end_cyl
        energy = (
            breakdown.seek_s * self.power_model.seek_power_w
            + (breakdown.rotation_s + breakdown.transfer_s)
            * self.power_model.active_power_w
        )
        self.account.add_service(breakdown.total_s, energy)
        finish = start_service + breakdown.total_s
        self._busy_until = finish
        if self.probe is not None:
            self.probe(
                DiskService(
                    arrival,
                    self.disk_id,
                    start_service,
                    breakdown.total_s,
                    energy,
                    is_write,
                    nblocks,
                )
            )
        return DiskResponse(
            arrival=arrival,
            start_service=start_service,
            finish=finish,
            wake_delay_s=wake_delay,
            breakdown=breakdown,
        )

    def submit_quick(
        self, arrival: float, block: int, is_write: bool = False
    ) -> tuple[float, float]:
        """Single-block fast path; returns ``(response_time_s, wake_delay_s)``.

        Semantically identical to ``submit(arrival, block, 1, is_write)``
        — the columnar/reference equivalence tests pin this bit for bit —
        but with the service-time math and the short-gap idle accounting
        inlined, and no :class:`DiskResponse` allocated. Falls back to
        :meth:`submit` whenever a probe or fault injector is attached so
        event streams stay complete and fault decisions are uniform.
        """
        if self.probe is not None or self.faults is not None:
            response = self.submit(arrival, block, 1, is_write)
            return response.finish - response.arrival, response.wake_delay_s
        if self._finalized:
            raise SimulationError(f"disk {self.disk_id} already finalized")
        last = self._last_arrival
        if last is not None:
            if arrival < last - TIME_EPS:
                raise SimulationError(
                    f"disk {self.disk_id}: arrival {arrival} precedes "
                    f"previous arrival {last}"
                )
            gap = arrival - last
            if gap > 0.0:
                self._interarrival_sum += gap
        self._last_arrival = arrival
        self._arrivals += 1

        account = self.account
        wake_delay = 0.0
        busy = self._busy_until
        if arrival > busy + TIME_EPS:
            duration = arrival - busy
            dpm = self.dpm
            if duration <= dpm.quick_idle_limit:
                # The whole gap is mode-0 residency: fold it into the
                # ledger directly (identical to add_idle of the
                # single-residency outcome; the transition/wake terms
                # are exact zeros).
                mode_time = account.mode_time_s
                mode_time[0] = mode_time.get(0, 0.0) + duration
                mode_energy = account.mode_energy_j
                mode_energy[0] = (
                    mode_energy.get(0, 0.0)
                    + duration * dpm.quick_idle_power_w
                )
            else:
                wake_delay = dpm.account_idle(duration, True, account)
            effective = arrival
        else:
            effective = busy

        start_service = effective + wake_delay
        timing = self.timing
        geometry = timing.geometry
        if type(geometry) is DiskGeometry and 0 <= block < geometry.num_blocks:
            # locate_cs + track_sectors inlined (uniform geometry only;
            # zoned/custom geometries take the polymorphic calls below)
            cylinder = block // geometry.blocks_per_cylinder
            sector = (
                block
                - cylinder * geometry.blocks_per_cylinder
            ) % geometry.blocks_per_track * geometry.sectors_per_block
            sector_angle = 1.0 / geometry.sectors_per_track
        else:
            cylinder, sector = geometry.locate_cs(block)
            sector_angle = 1.0 / geometry.track_sectors(cylinder)
        period = timing.rotation_period_s
        seek = timing.seek
        distance = cylinder - self._cylinder
        if distance < 0:
            distance = -distance
        if type(seek) is SeekModel:
            # seek_time inlined
            if distance == 0:
                seek_s = 0.0
            elif distance <= seek._knee:
                seek_s = seek._a + seek._b * (sqrt(distance) - 1.0)
            else:
                seek_s = seek._t_knee + seek._slope * (
                    distance - seek._knee
                )
        else:
            seek_s = seek.seek_time(distance)
        at_head = ((start_service + seek_s) / period) % 1.0
        target = sector * sector_angle
        delta = target - at_head
        if delta < 0:
            delta += 1.0
        rotation_s = delta * period
        transfer_s = geometry.sectors_per_block * sector_angle * period
        self._cylinder = cylinder
        power_model = self.power_model
        energy = (
            seek_s * power_model.seek_power_w
            + (rotation_s + transfer_s) * power_model.active_power_w
        )
        total = seek_s + rotation_s + transfer_s
        account.service_time_s += total
        account.service_energy_j += energy
        account.requests += 1
        finish = start_service + total
        self._busy_until = finish
        return finish - arrival, wake_delay

    def finalize(self, end_time: float) -> None:
        """Account the trailing idle gap up to the end of the trace.

        No spin-up is charged — nothing arrives after the trace ends.
        Idempotent per disk; further submits are rejected.
        """
        if self._finalized:
            return
        if end_time > self._busy_until + TIME_EPS:
            outcome = self.dpm.process_idle(
                end_time - self._busy_until, wake=False
            )
            self.account.add_idle(outcome)
            if self.probe is not None:
                self._publish_idle(end_time, outcome)
            self._busy_until = end_time
        self._finalized = True
        if self.probe is not None:
            self.probe(
                DiskFinalized(end_time, self.disk_id, self.account.total_energy_j)
            )

    def _publish_idle(self, time: float, outcome: IdleOutcome) -> None:
        """Emit one idle gap's reconstruction as events.

        Residency energy is attributed per mode with exactly the
        proportional split :meth:`EnergyAccount.add_idle` applies, so
        summing event energies reproduces the ledger.
        """
        probe = self.probe
        residency_energy = outcome.energy_j - outcome.transition_energy_j
        total_res = sum(outcome.mode_residency_s.values())
        for mode, seconds in outcome.mode_residency_s.items():
            share = (
                residency_energy * (seconds / total_res)
                if total_res > 0
                else 0.0
            )
            probe(StateDwell(time, self.disk_id, mode, seconds, share))
        if outcome.spindowns:
            probe(
                DiskSpinDown(
                    time,
                    self.disk_id,
                    outcome.spindowns,
                    outcome.transition_time_s,
                    outcome.transition_energy_j,
                )
            )
        if outcome.spinups:
            probe(
                DiskSpinUp(
                    time,
                    self.disk_id,
                    outcome.wake_delay_s,
                    outcome.wake_energy_j,
                )
            )
