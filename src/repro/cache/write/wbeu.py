"""Write-back with eager update (WBEU, Section 6).

Write-back, plus two flush triggers:

* when a disk becomes active because of a read miss, all of its dirty
  blocks are flushed immediately — the writes ride on a spin-up that
  was already paid for;
* if a parked disk accumulates more than ``dirty_threshold`` dirty
  blocks, it is forced active and flushed, bounding both cache
  pollution and the window of unpersisted data.
"""

from __future__ import annotations

from repro.cache.block import BlockKey, BlockState
from repro.cache.write.base import WritePolicy
from repro.errors import ConfigurationError


class WBEUPolicy(WritePolicy):
    """Write-back with eager updates on disk activation."""

    name = "WBEU"

    def __init__(self, dirty_threshold: int = 1024) -> None:
        super().__init__()
        if dirty_threshold < 1:
            raise ConfigurationError(
                f"dirty_threshold must be >= 1, got {dirty_threshold}"
            )
        self.dirty_threshold = dirty_threshold
        self.forced_flushes = 0
        self.eager_flushes = 0

    def on_write(self, key: BlockKey, time: float) -> float:
        self._require_attached()
        self.cache.mark_dirty(key)
        disk_id = key[0]
        if self.cache.dirty_count(disk_id) >= self.dirty_threshold:
            # Force the disk up and drain — the paper's backstop against
            # a permanently-sleeping disk swallowing the whole cache.
            self.forced_flushes += 1
            self._flush_disk(disk_id, time)
        return 0.0

    def on_evicted(self, key: BlockKey, state: BlockState, time: float) -> None:
        if not state.dirty:
            return
        disk_id = key[0]
        was_parked = self.array[disk_id].is_parked(time)
        self._write_to_disk(key, time)
        if was_parked and self.cache.dirty_count(disk_id):
            # The eviction just paid this disk's spin-up: eagerly ride
            # it with every other dirty block the disk owns.
            self.eager_flushes += 1
            self._flush_disk(disk_id, time)

    def after_read_wake(self, disk_id: int, time: float, woke: bool) -> None:
        if woke and self.cache.dirty_count(disk_id):
            self.eager_flushes += 1
            self._flush_disk(disk_id, time)

    def _flush_disk(self, disk_id: int, time: float) -> None:
        """Write every dirty block of ``disk_id`` back, in block order."""
        for key in self.cache.dirty_blocks(disk_id):
            self._write_to_disk(key, time)
            self.cache.mark_clean(key)

    def state_dict(self) -> dict:
        return {
            **super().state_dict(),
            "forced_flushes": self.forced_flushes,
            "eager_flushes": self.eager_flushes,
        }

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self.forced_flushes = int(state["forced_flushes"])
        self.eager_flushes = int(state["eager_flushes"])

    def pending_dirty(self) -> int:
        self._require_attached()
        return sum(
            self.cache.dirty_count(d.disk_id) for d in self.array.disks
        )
