"""First-in-first-out replacement (insertion-order eviction)."""

from __future__ import annotations

from collections import OrderedDict

from repro.cache.block import BlockKey
from repro.cache.policies.base import ReplacementPolicy
from repro.errors import PolicyError
from repro.snapshot import pack_keys, unpack_keys


class FIFOPolicy(ReplacementPolicy):
    """Evicts in insertion order; hits do not refresh position."""

    name = "FIFO"

    def __init__(self) -> None:
        self._queue: OrderedDict[BlockKey, None] = OrderedDict()

    def on_access(self, key: BlockKey, time: float, hit: bool) -> None:
        pass  # FIFO ignores recency

    def on_insert(self, key: BlockKey, time: float) -> None:
        if key in self._queue:
            return  # re-insert of a pinned victim keeps original position
        self._queue[key] = None

    def evict(self, time: float) -> BlockKey:
        if not self._queue:
            raise PolicyError("FIFO: evict from empty queue")
        key, _ = self._queue.popitem(last=False)
        return key

    def on_remove(self, key: BlockKey) -> None:
        self._queue.pop(key, None)

    def __len__(self) -> int:
        return len(self._queue)

    def state_dict(self) -> dict:
        return {"queue": pack_keys(self._queue)}

    def load_state_dict(self, state: dict) -> None:
        self._queue = OrderedDict.fromkeys(unpack_keys(state["queue"]))
