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
    #: Scratch slots for the fused OPG loop (``sim/engine.py``): the
    #: block's next-access time and lazy-heap stamp, which the scalar
    #: path keeps in ``OPGPolicy._next_of`` / ``_stamp`` dicts. Riding
    #: on the state object the hit path already holds makes the fused
    #: loop's per-access bookkeeping dict-free. Nothing copies them
    #: back into the policy dicts: nothing reads an OPG policy after a
    #: run. Meaningless outside that loop.
    opg_nt: float = 0.0
    opg_stamp: int = 0

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
