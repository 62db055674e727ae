"""Cache block bookkeeping.

A cached block is identified by its :data:`BlockKey` — the ``(disk_id,
block_number)`` pair — and carries the small amount of state the write
policies need: the dirty bit and, for WTDU, the "logged" flag marking
blocks whose latest contents live in the log region rather than on
their home disk. Logged blocks are pinned: evicting them would discard
the only fast copy while the slow copy sits in a log that is never read
outside crash recovery.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Global block identity: (disk_id, block_number_on_that_disk).
BlockKey = tuple[int, int]


@dataclass(slots=True)
class BlockState:
    """Mutable per-block metadata held by the cache."""

    dirty: bool = False
    logged: bool = False
    #: Set for blocks admitted by the prefetcher and not yet demanded;
    #: cleared (and counted as a prefetch hit) on first demand access.
    prefetched: bool = False
    #: Scratch slots for the fused loops (``sim/engine.py``), which keep
    #: per-block policy state on the state object the hit path already
    #: holds instead of in the policy's dicts. The fused OPG loop keeps
    #: the block's next-access time and lazy-heap stamp here (the
    #: scalar path's ``OPGPolicy._next_of`` / ``_stamp``), and the
    #: block's dense key id (``OPGPolicy._key_id_array``), under which
    #: an eviction files the stamp in the loop's list of evicted
    #: blocks' stamps; the fused PA-LRU loop keeps the block's side,
    #: ``True`` when it sits in the priority stack (the scalar path's
    #: ``PowerAwarePolicy._home``). Nothing copies them back into the
    #: policy: nothing reads an OPG or PA policy after a run.
    #: Meaningless outside those loops.
    opg_nt: float = 0.0
    opg_stamp: int = 0
    opg_key_id: int = 0
    pa_priority: bool = False

    @property
    def pinned(self) -> bool:
        """Logged blocks may not be evicted until flushed to their disk."""
        return self.logged


def disk_of(key: BlockKey) -> int:
    """The disk a block key belongs to."""
    return key[0]


def block_of(key: BlockKey) -> int:
    """The on-disk block number of a block key."""
    return key[1]
