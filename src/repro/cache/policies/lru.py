"""Least-recently-used replacement — the paper's baseline policy."""

from __future__ import annotations

from collections import OrderedDict

from repro.cache.block import BlockKey
from repro.cache.policies.base import ReplacementPolicy
from repro.errors import PolicyError
from repro.snapshot import pack_keys, unpack_keys


class LRUPolicy(ReplacementPolicy):
    """Classic LRU stack.

    ``on_access`` hits move the block to the MRU end; ``evict`` removes
    the LRU end.
    """

    name = "LRU"

    def __init__(self) -> None:
        self._stack: OrderedDict[BlockKey, None] = OrderedDict()

    def on_access(self, key: BlockKey, time: float, hit: bool) -> None:
        if hit:
            self._stack.move_to_end(key)

    def on_insert(self, key: BlockKey, time: float) -> None:
        self._stack[key] = None
        self._stack.move_to_end(key)

    def evict(self, time: float) -> BlockKey:
        if not self._stack:
            raise PolicyError("LRU: evict from empty stack")
        key, _ = self._stack.popitem(last=False)
        return key

    def on_remove(self, key: BlockKey) -> None:
        self._stack.pop(key, None)

    def __len__(self) -> int:
        return len(self._stack)

    def state_dict(self) -> dict:
        return {"stack": pack_keys(self._stack)}

    def load_state_dict(self, state: dict) -> None:
        self._stack = OrderedDict.fromkeys(unpack_keys(state["stack"]))
