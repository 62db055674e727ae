"""The WTDU log device: timestamped per-disk log regions with recovery.

Section 6 of the paper: the log space is divided into one region per
data disk. The first block of a region holds the region's current
timestamp; every logged block is stamped with the timestamp in force
when it was appended. Flushing a region (after its disk spins up and
the cached copies are written home) increments the region timestamp and
resets the free pointer — the old entries remain physically present but
are logically dead, because crash recovery only replays entries whose
stamp equals the region timestamp.

The log device itself is modelled as an always-active sequential
device (NVRAM or a dedicated log disk — databases keep one spinning for
commit latency anyway). Only the *incremental* energy of log writes is
charged, as in the paper; the device's baseline idle energy is common
to all policies and excluded.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.block import BlockKey
from repro.errors import ConfigurationError, RecoveryError
from repro.observe.events import LogAppend, LogFlush
from repro.snapshot import (
    expect_length,
    load_state,
    pack_ints,
    pack_keys,
    state_of,
    unpack_ints,
    unpack_keys,
)


@dataclass
class _Slot:
    key: BlockKey
    stamp: int


class LogRegion:
    """One disk's log region.

    Slots are overwritten in place across epochs, mimicking the on-disk
    layout; :meth:`recover` reconstructs the replay set exactly the way
    the paper's recovery process does — by comparing slot stamps to the
    region timestamp stored in the region's first block.
    """

    def __init__(self, capacity_blocks: int) -> None:
        if capacity_blocks < 1:
            raise ConfigurationError(
                f"log region capacity must be >= 1, got {capacity_blocks}"
            )
        self.capacity = capacity_blocks
        self.timestamp = 0
        self._slots: list[_Slot | None] = [None] * capacity_blocks
        self._free = 0

    @property
    def used(self) -> int:
        return self._free

    @property
    def is_full(self) -> bool:
        return self._free >= self.capacity

    def append(self, key: BlockKey) -> None:
        """Log one block write. Raises if the region is full — the
        caller must flush first."""
        if self.is_full:
            raise RecoveryError("log region full; flush before appending")
        self._slots[self._free] = _Slot(key=key, stamp=self.timestamp)
        self._free += 1

    def flush(self) -> None:
        """The disk's cached copies were written home: retire the epoch."""
        self.timestamp += 1
        self._free = 0  # old slots stay, logically dead

    def state_dict(self) -> dict:
        """The timestamp, the free pointer, and the written slots.

        Appends fill slots from 0 and never clear them, so the written
        slots are a prefix; dead slots past the free pointer are kept
        too, since they are part of the modelled on-disk layout."""
        written = [slot for slot in self._slots if slot is not None]
        return {
            "timestamp": self.timestamp,
            "free": self._free,
            "slot_keys": pack_keys(slot.key for slot in written),
            "slot_stamps": pack_ints(slot.stamp for slot in written),
        }

    def load_state_dict(self, state: dict) -> None:
        keys = unpack_keys(state["slot_keys"])
        stamps = unpack_ints(state["slot_stamps"])
        free = int(state["free"])
        if len(stamps) != len(keys):
            raise ValueError(f"{len(keys)} slots but {len(stamps)} stamps")
        if not free <= len(keys) <= self.capacity:
            raise ValueError(
                f"{len(keys)} written slots and free pointer {free} do not "
                f"fit a {self.capacity}-slot region"
            )
        slots: list[_Slot | None] = [
            _Slot(key=key, stamp=stamp) for key, stamp in zip(keys, stamps)
        ]
        slots.extend([None] * (self.capacity - len(slots)))
        self.timestamp = int(state["timestamp"])
        self._free = free
        self._slots = slots

    def recover(self) -> list[BlockKey]:
        """Replay set after a crash: blocks whose stamp matches the
        region timestamp (their home-disk write may not have happened).

        Later entries win for duplicate keys, preserving write order.
        """
        pending: dict[BlockKey, None] = {}
        for slot in self._slots:
            if slot is not None and slot.stamp == self.timestamp:
                pending.pop(slot.key, None)
                pending[slot.key] = None
        return list(pending)


class LogDevice:
    """Always-active sequential log with one region per data disk.

    Args:
        num_disks: Data disks served (one region each).
        region_capacity_blocks: Slots per region.
        write_latency_s: Client-visible latency of one log append
            (sequential write on an active device — sub-millisecond).
        write_energy_j: Incremental energy charged per append.
        probe: Optional event hook (see :mod:`repro.observe`); emits
            :class:`LogAppend` / :class:`LogFlush` events when the
            caller supplies timestamps.
    """

    def __init__(
        self,
        num_disks: int,
        region_capacity_blocks: int = 4096,
        write_latency_s: float = 0.5e-3,
        write_energy_j: float = 13.5 * 0.5e-3,
        probe=None,
    ) -> None:
        if num_disks < 1:
            raise ConfigurationError(f"num_disks must be >= 1, got {num_disks}")
        self.regions = [
            LogRegion(region_capacity_blocks) for _ in range(num_disks)
        ]
        self.write_latency_s = write_latency_s
        self.write_energy_j = write_energy_j
        self.probe = probe
        self.appends = 0
        self.energy_j = 0.0

    def append(self, disk_id: int, key: BlockKey, time: float = 0.0) -> float:
        """Log a write for ``disk_id``; returns client latency."""
        self.regions[disk_id].append(key)
        self.appends += 1
        self.energy_j += self.write_energy_j
        if self.probe is not None:
            self.probe(LogAppend(time, disk_id, key[1]))
        return self.write_latency_s

    def region_full(self, disk_id: int) -> bool:
        return self.regions[disk_id].is_full

    def flush(self, disk_id: int, time: float = 0.0) -> None:
        retired = self.regions[disk_id].used
        self.regions[disk_id].flush()
        if self.probe is not None:
            self.probe(LogFlush(time, disk_id, retired))

    def state_dict(self) -> dict:
        return {
            "regions": [state_of(region) for region in self.regions],
            "appends": self.appends,
            "energy_j": self.energy_j,
        }

    def load_state_dict(self, state: dict) -> None:
        regions = list(state["regions"])
        expect_length("log regions", regions, len(self.regions))
        for region, region_state in zip(self.regions, regions):
            load_state(region, region_state)
        self.appends = int(state["appends"])
        self.energy_j = float(state["energy_j"])

    def recover_all(self) -> dict[int, list[BlockKey]]:
        """Crash recovery across every region (disk_id -> replay set)."""
        return {
            disk_id: region.recover()
            for disk_id, region in enumerate(self.regions)
        }
