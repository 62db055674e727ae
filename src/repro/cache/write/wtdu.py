"""Write-through with deferred update (WTDU, Section 6).

Write-through's persistency without its spin-ups: a write whose home
disk is parked goes to the always-active log device instead, stamped
into the disk's log region; the cache copy is marked *logged* (and
thereby pinned — the log is never read outside crash recovery, so the
cached copy is the only fast copy). When the disk becomes active —
because of a read miss, or because its log region filled and forces a
flush — all logged blocks are written home before any new writes, the
region timestamp is bumped, and the pins drop.

Writes whose home disk is already spinning simply write through.
"""

from __future__ import annotations

from repro.cache.block import BlockKey
from repro.cache.write.base import WritePolicy
from repro.cache.write.log_region import LogDevice
from repro.errors import ConfigurationError
from repro.snapshot import load_state, state_of


class WTDUPolicy(WritePolicy):
    """Write-through with deferred updates via a log device."""

    name = "WTDU"

    def __init__(
        self, log_device: LogDevice, max_pinned_fraction: float = 0.5
    ) -> None:
        super().__init__()
        if not 0.0 < max_pinned_fraction <= 1.0:
            raise ConfigurationError(
                "max_pinned_fraction must be in (0, 1], got "
                f"{max_pinned_fraction}"
            )
        self.log = log_device
        self.max_pinned_fraction = max_pinned_fraction
        self.deferred_writes = 0
        self.forced_flushes = 0

    def set_probe(self, probe) -> None:
        """Also wire the log device, so appends/flushes are traced."""
        super().set_probe(probe)
        self.log.probe = probe

    def _pinned_pressure(self) -> bool:
        """Logged (pinned) blocks approaching cache capacity?

        Pinned blocks are unevictable; without this backstop a write-
        only workload would fill the cache with them and wedge it.
        """
        capacity = self.cache.capacity
        if capacity is None:
            return False
        return self.cache.pinned_count >= capacity * self.max_pinned_fraction

    def on_write(self, key: BlockKey, time: float) -> float:
        self._require_attached()
        disk_id = key[0]
        if self._pinned_pressure():
            # Drain the disk holding the most deferred data. Only disks
            # with logged blocks are candidates: flushing a clean disk
            # would spin nothing down in pressure and (worse) bump its
            # empty log region's epoch. Pressure without any dirty disk
            # means the pins belong to another policy's bookkeeping —
            # nothing for us to drain.
            candidates = [
                d.disk_id
                for d in self.array.disks
                if self.cache.dirty_count(d.disk_id)
            ]
            if candidates:
                victim_disk = max(candidates, key=self.cache.dirty_count)
                self.forced_flushes += 1
                self._flush_disk(victim_disk, time)
        if self.array[disk_id].is_parked(time):
            if self.log.region_full(disk_id):
                # Region exhausted: pay the spin-up, drain, then log anew.
                self.forced_flushes += 1
                self._flush_disk(disk_id, time)
                return self._write_to_disk(key, time)
            latency = self.log.append(disk_id, key, time)
            self.cache.mark_logged(key)
            self.deferred_writes += 1
            return latency
        # Disk is spinning. Drain any leftovers first so the log region
        # never holds data older than what we write through now.
        if self.cache.dirty_count(disk_id):
            self._flush_disk(disk_id, time)
        return self._write_to_disk(key, time)

    def after_read_wake(self, disk_id: int, time: float, woke: bool) -> None:
        if woke and self.cache.dirty_count(disk_id):
            self._flush_disk(disk_id, time)

    def _flush_disk(self, disk_id: int, time: float) -> None:
        """Write all logged blocks home and retire the log epoch.

        An empty region is left alone: flushing it would bump the
        timestamp for no reason, and a timestamp that only advances on
        non-empty flushes keeps the epoch a faithful count of real
        drain events (recovery correctness does not depend on it, but
        the observability/accounting does).
        """
        for key in self.cache.dirty_blocks(disk_id):
            self._write_to_disk(key, time)
            self.cache.mark_clean(key)
        if self.log.regions[disk_id].used:
            self.log.flush(disk_id, time)

    def pending_dirty(self) -> int:
        self._require_attached()
        return sum(
            self.cache.dirty_count(d.disk_id) for d in self.array.disks
        )

    def state_dict(self) -> dict:
        return {
            **super().state_dict(),
            "deferred_writes": self.deferred_writes,
            "forced_flushes": self.forced_flushes,
            "log": state_of(self.log),
        }

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self.deferred_writes = int(state["deferred_writes"])
        self.forced_flushes = int(state["forced_flushes"])
        load_state(self.log, state["log"])

    @property
    def extra_energy_j(self) -> float:
        """Incremental log-device energy (charged to WTDU's totals)."""
        return self.log.energy_j
