"""CLOCK (second-chance) replacement."""

from __future__ import annotations

from collections import OrderedDict

from repro.cache.block import BlockKey
from repro.cache.policies.base import ReplacementPolicy
from repro.errors import PolicyError
from repro.snapshot import pack_ints, pack_keys, unpack_ints, unpack_keys


class ClockPolicy(ReplacementPolicy):
    """One-bit CLOCK: hits set the reference bit; eviction sweeps the
    ring, clearing bits until it finds an unreferenced block."""

    name = "CLOCK"

    def __init__(self) -> None:
        # OrderedDict as the ring: the front is the clock hand.
        self._ring: OrderedDict[BlockKey, bool] = OrderedDict()

    def on_access(self, key: BlockKey, time: float, hit: bool) -> None:
        if hit and key in self._ring:
            self._ring[key] = True

    def on_insert(self, key: BlockKey, time: float) -> None:
        self._ring[key] = False
        self._ring.move_to_end(key)

    def evict(self, time: float) -> BlockKey:
        if not self._ring:
            raise PolicyError("CLOCK: evict from empty ring")
        while True:
            key, referenced = next(iter(self._ring.items()))
            if referenced:
                # second chance: clear the bit, rotate behind the hand
                self._ring[key] = False
                self._ring.move_to_end(key)
            else:
                del self._ring[key]
                return key

    def on_remove(self, key: BlockKey) -> None:
        self._ring.pop(key, None)

    def __len__(self) -> int:
        return len(self._ring)

    def state_dict(self) -> dict:
        """The ring from the hand onwards, with each reference bit."""
        return {
            "ring": pack_keys(self._ring),
            "referenced": pack_ints(self._ring.values()),
        }

    def load_state_dict(self, state: dict) -> None:
        keys = unpack_keys(state["ring"])
        bits = unpack_ints(state["referenced"])
        if len(bits) != len(keys):
            raise ValueError(f"{len(keys)} ring slots but {len(bits)} bits")
        self._ring = OrderedDict(zip(keys, map(bool, bits)))
