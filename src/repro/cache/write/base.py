"""Write policy interface.

A write policy reacts to three engine events:

* ``on_write(key, time)`` — a write access just landed in the cache
  (the cache insert, including write-allocate on a miss, has already
  happened). Returns the latency the *client* observes beyond the
  cache access itself (e.g. the synchronous disk write of WT).
* ``on_evicted(key, state, time)`` — a block left the cache; if its
  state is dirty the policy must persist it now.
* ``after_read_wake(disk_id, time, woke)`` — a read miss was just
  serviced on ``disk_id``; ``woke`` says whether the miss spun the disk
  up from a parked state. WBEU/WTDU use this to piggyback flushes on
  the already-paid spin-up.

Policies receive the cache and disk array via :meth:`attach` before the
run starts.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.cache.block import BlockKey, BlockState
from repro.cache.cache import StorageCache
from repro.disk.array import DiskArray
from repro.errors import SimulationError
from repro.observe.events import DirtyFlush


class WritePolicy(ABC):
    """Strategy interface for handling writes.

    The engine's loops call these hooks polymorphically, except the
    fused OPG loop: it runs only under exactly ``WriteBackPolicy``,
    whose hooks it inlines, so OPG under any other write policy (a
    ``WriteBackPolicy`` subclass included) takes the generic loop.
    """

    name: str = "base"

    def __init__(self) -> None:
        self.cache: StorageCache | None = None
        self.array: DiskArray | None = None
        #: Disk writes issued by this policy (reporting).
        self.disk_writes = 0
        #: Callback (disk_id, time) invoked for every disk write, so
        #: power-aware replacement policies can track disk activity.
        self.activity_listener = None
        #: Optional event hook (see :mod:`repro.observe`); emits a
        #: :class:`DirtyFlush` for every physical home-disk write.
        self.probe = None

    def set_probe(self, probe) -> None:
        """Wire the observability hook (subclasses may propagate it)."""
        self.probe = probe

    def attach(
        self,
        cache: StorageCache,
        array: DiskArray,
        activity_listener=None,
    ) -> None:
        """Wire the policy to the run's cache and disk array."""
        self.cache = cache
        self.array = array
        self.activity_listener = activity_listener

    def _require_attached(self) -> None:
        if self.cache is None or self.array is None:
            raise SimulationError(f"{self.name}: write policy not attached")

    @abstractmethod
    def on_write(self, key: BlockKey, time: float) -> float:
        """Handle a write access; return extra client-visible latency."""

    def on_evicted(self, key: BlockKey, state: BlockState, time: float) -> None:
        """Handle an evicted block (default: nothing to persist)."""

    def after_read_wake(self, disk_id: int, time: float, woke: bool) -> None:
        """A read miss was serviced on ``disk_id`` (default: no-op)."""

    def pending_dirty(self) -> int:
        """Blocks whose latest data has not reached their home disk."""
        return 0

    def state_dict(self) -> dict:
        """Mutable fields only (see :mod:`repro.snapshot`); a subclass
        that adds state must extend both snapshot methods."""
        return {"disk_writes": self.disk_writes}

    def load_state_dict(self, state: dict) -> None:
        self.disk_writes = int(state["disk_writes"])

    def _write_to_disk(self, key: BlockKey, time: float) -> float:
        """Issue the physical write; returns its response time."""
        if self.cache is None or self.array is None:
            self._require_attached()
        disk, block = key
        response_time, _ = self.array.submit_quick(disk, time, block, True)
        self.disk_writes += 1
        if self.probe is not None:
            self.probe(DirtyFlush(time, disk, block))
        if self.activity_listener is not None:
            self.activity_listener(disk, time)
        return response_time
