"""Typed simulation events.

Every event is a small ``slots`` dataclass with a ``kind`` tag (a
stable string used by sinks for dispatch and serialization) and a
``time`` field — the simulation timestamp at which the event was
*published*. Publishers reconstruct idle gaps lazily, so events that
describe the past (e.g. a :class:`StateDwell` covering an idle gap)
carry the publication time plus explicit duration fields; streams are
therefore monotone in ``time`` even though they describe overlapping
intervals.

Event vocabulary:

* Cache — :class:`CacheHit`, :class:`CacheMiss`, :class:`Insert`,
  :class:`Evict`, :class:`DirtyFlush`.
* Disk/DPM — :class:`DiskSpinUp`, :class:`DiskSpinDown`,
  :class:`SpeedChange`, :class:`StateDwell`, :class:`DiskService`,
  :class:`DiskFinalized`.
* PA classifier — :class:`EpochRollover`, :class:`DiskReclassified`.
* WTDU log — :class:`LogAppend`, :class:`LogFlush`.
* Faults/recovery — :class:`FaultInjected`, :class:`SpinUpFailed`,
  :class:`RecoveryReplay`.
* Engine — :class:`SimulationStart`, :class:`RequestComplete`.

The energy-carrying disk events are emitted with exactly the joules the
:class:`~repro.power.accounting.EnergyAccount` ledger records, so a
sink that sums them reproduces the account totals (the
:class:`~repro.observe.invariants.InvariantChecker` enforces this at
:class:`DiskFinalized`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, ClassVar


@dataclass(slots=True)
class Event:
    """Base class: every event has a publication timestamp."""

    kind: ClassVar[str] = "event"

    time: float

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe flat dict (``kind`` included)."""
        data: dict[str, Any] = {"kind": self.kind}
        for f in fields(self):
            data[f.name] = getattr(self, f.name)
        return data


# -- engine ---------------------------------------------------------------


@dataclass(slots=True)
class SimulationStart(Event):
    """Emitted once before the first request of a run."""

    kind: ClassVar[str] = "simulation_start"

    num_disks: int
    #: Cache capacity in blocks; ``None`` is the infinite cache.
    cache_capacity: int | None
    #: ``"full-speed-only"`` or ``"all-speed"`` (Section 2.1 designs).
    disk_design: str
    label: str
    #: Power-mode ladder size (mode ``num_modes - 1`` is standby);
    #: 0 when unknown.
    num_modes: int = 0


@dataclass(slots=True)
class RequestComplete(Event):
    """One client request finished (its slowest block access)."""

    kind: ClassVar[str] = "request_complete"

    disk: int
    latency_s: float
    is_write: bool
    nblocks: int


# -- cache ----------------------------------------------------------------


@dataclass(slots=True)
class CacheHit(Event):
    kind: ClassVar[str] = "cache_hit"

    disk: int
    block: int
    is_write: bool


@dataclass(slots=True)
class CacheMiss(Event):
    kind: ClassVar[str] = "cache_miss"

    disk: int
    block: int
    is_write: bool


@dataclass(slots=True)
class Insert(Event):
    """A block became resident. ``occupancy`` is the post-insert count."""

    kind: ClassVar[str] = "insert"

    disk: int
    block: int
    occupancy: int
    prefetched: bool = False


@dataclass(slots=True)
class Evict(Event):
    """A block left the cache. ``occupancy`` is the post-removal count."""

    kind: ClassVar[str] = "evict"

    disk: int
    block: int
    dirty: bool
    occupancy: int


@dataclass(slots=True)
class DirtyFlush(Event):
    """The write policy wrote a block's data to its home disk."""

    kind: ClassVar[str] = "dirty_flush"

    disk: int
    block: int


# -- disk / DPM -----------------------------------------------------------


@dataclass(slots=True)
class StateDwell(Event):
    """Residency in one power mode during a reconstructed idle gap.

    ``energy_j`` is the residency energy attributed to this mode with
    the same proportional split the :class:`EnergyAccount` uses.
    """

    kind: ClassVar[str] = "state_dwell"

    disk: int
    mode: int
    seconds: float
    energy_j: float


@dataclass(slots=True)
class DiskSpinDown(Event):
    """Downshift transition(s) that completed (or aborted) in a gap."""

    kind: ClassVar[str] = "disk_spin_down"

    disk: int
    count: int
    duration_s: float
    energy_j: float


@dataclass(slots=True)
class DiskSpinUp(Event):
    """A spin-up back to service speed. ``delay_s`` is the
    client-visible wake delay (0 for Oracle DPM)."""

    kind: ClassVar[str] = "disk_spin_up"

    disk: int
    delay_s: float
    energy_j: float


@dataclass(slots=True)
class SpeedChange(Event):
    """An all-speed (DRPM) disk changed rotational mode."""

    kind: ClassVar[str] = "speed_change"

    disk: int
    old_mode: int
    new_mode: int


@dataclass(slots=True)
class DiskService(Event):
    """One disk request was serviced (seek + rotation + transfer)."""

    kind: ClassVar[str] = "disk_service"

    disk: int
    start_s: float
    seconds: float
    energy_j: float
    is_write: bool
    nblocks: int


@dataclass(slots=True)
class DiskFinalized(Event):
    """The disk wound down at end of trace; carries its ledger total so
    sinks can reconcile streamed energy against the account."""

    kind: ClassVar[str] = "disk_finalized"

    disk: int
    account_energy_j: float


# -- PA classifier --------------------------------------------------------


@dataclass(slots=True)
class EpochRollover(Event):
    """A classification epoch ended. ``boundary_s`` is the nominal
    epoch boundary; ``time`` is the (lazy) observation that crossed it."""

    kind: ClassVar[str] = "epoch_rollover"

    boundary_s: float
    epoch: int


@dataclass(slots=True)
class DiskReclassified(Event):
    """A disk changed class at an epoch boundary."""

    kind: ClassVar[str] = "disk_reclassified"

    disk: int
    old_class: str
    new_class: str


# -- WTDU log device ------------------------------------------------------


@dataclass(slots=True)
class LogAppend(Event):
    """A deferred write was stamped into a disk's log region."""

    kind: ClassVar[str] = "log_append"

    disk: int
    block: int


@dataclass(slots=True)
class LogFlush(Event):
    """A disk's log region retired its epoch. ``retired`` is the entry
    count the flush made logically dead."""

    kind: ClassVar[str] = "log_flush"

    disk: int
    retired: int


# -- fault injection / crash recovery -------------------------------------


@dataclass(slots=True)
class FaultInjected(Event):
    """A transient fault was injected into a disk request.

    ``fault`` names the fault class (currently ``"io_error"``);
    ``attempt`` is the 1-based failed attempt and ``delay_s`` the
    backoff that attempt cost the request."""

    kind: ClassVar[str] = "fault_injected"

    disk: int
    fault: str
    attempt: int
    delay_s: float


@dataclass(slots=True)
class SpinUpFailed(Event):
    """A disk spin-up attempt failed and will be retried after
    ``delay_s`` of backoff (``attempt`` is 1-based)."""

    kind: ClassVar[str] = "spin_up_failed"

    disk: int
    attempt: int
    delay_s: float


@dataclass(slots=True)
class RecoveryReplay(Event):
    """Crash recovery reconstructed a disk's replay set from its log
    region; ``replayed`` is the number of blocks to write home."""

    kind: ClassVar[str] = "recovery_replay"

    disk: int
    replayed: int


#: All concrete event classes, keyed by their ``kind`` tag.
EVENT_TYPES: dict[str, type[Event]] = {
    cls.kind: cls
    for cls in (
        SimulationStart,
        RequestComplete,
        CacheHit,
        CacheMiss,
        Insert,
        Evict,
        DirtyFlush,
        StateDwell,
        DiskSpinDown,
        DiskSpinUp,
        SpeedChange,
        DiskService,
        DiskFinalized,
        EpochRollover,
        DiskReclassified,
        LogAppend,
        LogFlush,
        FaultInjected,
        SpinUpFailed,
        RecoveryReplay,
    )
}
