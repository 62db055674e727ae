"""Write-back with periodic flushing (a pdflush-style baseline).

Production storage rarely runs pure write-back — dirty data is
typically bounded by a flush daemon that writes it home every few
seconds or minutes. This policy rounds out the paper's write-policy
spectrum between WB (unbounded exposure, fewest writes) and WT (zero
exposure, most writes): the ``flush_interval_s`` knob trades the age of
unpersisted data against the spin-ups the flushes cost.

The flush clock is driven lazily by write/read activity (the engine is
trace-driven, so there are no timers): each event whose timestamp has
passed the deadline triggers a sweep of every disk's dirty blocks.
"""

from __future__ import annotations

from repro.cache.block import BlockKey, BlockState
from repro.cache.write.base import WritePolicy
from repro.errors import ConfigurationError


class PeriodicFlushPolicy(WritePolicy):
    """Write-back bounded by a periodic flush sweep.

    Args:
        flush_interval_s: Maximum time between flush sweeps (the upper
            bound on how long an acknowledged write stays volatile,
            modulo the lazy clock advancing only on activity).
    """

    name = "periodic-flush"

    def __init__(self, flush_interval_s: float = 30.0) -> None:
        super().__init__()
        if flush_interval_s <= 0:
            raise ConfigurationError(
                f"flush_interval_s must be > 0, got {flush_interval_s}"
            )
        self.flush_interval_s = flush_interval_s
        self._next_flush: float | None = None
        self.flush_sweeps = 0

    def _maybe_flush(self, time: float) -> None:
        if self._next_flush is None:
            self._next_flush = time + self.flush_interval_s
            return
        if time < self._next_flush:
            return
        self.flush_sweeps += 1
        for disk in self.array.disks:
            for key in self.cache.dirty_blocks(disk.disk_id):
                self._write_to_disk(key, time)
                self.cache.mark_clean(key)
        # schedule relative to now — a long quiet period produces one
        # catch-up sweep, not a burst of overdue ones
        self._next_flush = time + self.flush_interval_s

    def on_write(self, key: BlockKey, time: float) -> float:
        self._require_attached()
        self._maybe_flush(time)
        self.cache.mark_dirty(key)
        return 0.0

    def on_evicted(self, key: BlockKey, state: BlockState, time: float) -> None:
        if state.dirty:
            self._write_to_disk(key, time)

    def after_read_wake(self, disk_id: int, time: float, woke: bool) -> None:
        self._maybe_flush(time)

    def state_dict(self) -> dict:
        return {
            **super().state_dict(),
            "next_flush": self._next_flush,
            "flush_sweeps": self.flush_sweeps,
        }

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        next_flush = state["next_flush"]
        self._next_flush = None if next_flush is None else float(next_flush)
        self.flush_sweeps = int(state["flush_sweeps"])

    def pending_dirty(self) -> int:
        self._require_attached()
        return sum(
            self.cache.dirty_count(d.disk_id) for d in self.array.disks
        )
