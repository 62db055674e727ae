"""ARC — Adaptive Replacement Cache (Megiddo & Modha, FAST'03).

One of the storage-cache policies the paper names as combinable with
its power-aware technique. ARC balances recency (T1) against frequency
(T2) using ghost lists (B1, B2) and an adaptive target ``p`` for T1's
share of the cache.

The implementation is driven by the external
:class:`~repro.cache.cache.StorageCache`: ``on_access`` updates ghosts
and adaptation, ``evict`` performs ARC's REPLACE step, and ``on_insert``
files the new block into the list chosen during its miss.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.cache.block import BlockKey
from repro.cache.policies.base import ReplacementPolicy
from repro.errors import ConfigurationError, PolicyError
from repro.snapshot import pack_keys, unpack_keys


class ARCPolicy(ReplacementPolicy):
    """Adaptive Replacement Cache.

    Args:
        capacity: Cache size in blocks; must equal the
            :class:`StorageCache` capacity it serves (ARC's ghost-list
            bounds and adaptation depend on it).
    """

    name = "ARC"

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError(f"ARC capacity must be >= 1, got {capacity}")
        self.c = capacity
        self.p = 0.0  # adaptive target size of T1
        self._t1: OrderedDict[BlockKey, None] = OrderedDict()
        self._t2: OrderedDict[BlockKey, None] = OrderedDict()
        self._b1: OrderedDict[BlockKey, None] = OrderedDict()
        self._b2: OrderedDict[BlockKey, None] = OrderedDict()
        # Where the next on_insert should file its block.
        self._insert_to_t2 = False

    # -- policy contract -------------------------------------------------

    def on_access(self, key: BlockKey, time: float, hit: bool) -> None:
        if hit:
            # Any resident hit promotes to MRU of T2.
            if key in self._t1:
                del self._t1[key]
            elif key in self._t2:
                del self._t2[key]
            else:
                raise PolicyError(f"ARC: hit on untracked block {key}")
            self._t2[key] = None
            return
        # Miss: ghost hits adapt p and direct the insert to T2.
        if key in self._b1:
            delta = max(len(self._b2) / len(self._b1), 1.0)
            self.p = min(float(self.c), self.p + delta)
            del self._b1[key]
            self._insert_to_t2 = True
        elif key in self._b2:
            delta = max(len(self._b1) / len(self._b2), 1.0)
            self.p = max(0.0, self.p - delta)
            del self._b2[key]
            self._insert_to_t2 = True
        else:
            self._insert_to_t2 = False
            self._trim_ghosts()

    def _trim_ghosts(self) -> None:
        """Case IV of the ARC paper: bound the directory at 2c entries."""
        if len(self._t1) + len(self._b1) >= self.c and self._b1:
            self._b1.popitem(last=False)
        total = (
            len(self._t1) + len(self._t2) + len(self._b1) + len(self._b2)
        )
        if total >= 2 * self.c and self._b2:
            self._b2.popitem(last=False)

    def on_insert(self, key: BlockKey, time: float) -> None:
        if key in self._t1 or key in self._t2:
            # Re-insert of a pinned victim: restore to T2 MRU.
            self._t1.pop(key, None)
            self._t2[key] = None
            self._t2.move_to_end(key)
            return
        if self._insert_to_t2:
            self._t2[key] = None
        else:
            self._t1[key] = None
        self._insert_to_t2 = False

    def evict(self, time: float) -> BlockKey:
        """ARC's REPLACE: victim from T1 or T2 per the target ``p``."""
        prefer_t1 = bool(self._t1) and (
            len(self._t1) > self.p
            or (self._insert_to_t2 and len(self._t1) == int(self.p))
            or not self._t2
        )
        if prefer_t1:
            key, _ = self._t1.popitem(last=False)
            self._b1[key] = None
            return key
        if self._t2:
            key, _ = self._t2.popitem(last=False)
            self._b2[key] = None
            return key
        raise PolicyError("ARC: evict with no resident blocks")

    def on_remove(self, key: BlockKey) -> None:
        self._t1.pop(key, None)
        self._t2.pop(key, None)

    def __len__(self) -> int:
        return len(self._t1) + len(self._t2)

    def state_dict(self) -> dict:
        return {
            "p": self.p,
            "t1": pack_keys(self._t1),
            "t2": pack_keys(self._t2),
            "b1": pack_keys(self._b1),
            "b2": pack_keys(self._b2),
            "insert_to_t2": self._insert_to_t2,
        }

    def load_state_dict(self, state: dict) -> None:
        lists = [
            OrderedDict.fromkeys(unpack_keys(state[name]))
            for name in ("t1", "t2", "b1", "b2")
        ]
        self.p = float(state["p"])
        self._insert_to_t2 = bool(state["insert_to_t2"])
        self._t1, self._t2, self._b1, self._b2 = lists
