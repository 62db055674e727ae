"""Belady's MIN: the offline miss-optimal replacement algorithm.

Evicts the resident block whose next reference is farthest in the
future (never-referenced-again blocks first). Minimizes the number of
misses — but, as the paper's Section 3 shows, *not* disk energy.

Implementation: the prepared access sequence gives each access's
``next_pos`` (index of the same block's next occurrence). A max-heap of
``(-next_pos, key)`` with lazy invalidation yields O(log n) evictions.
"""

from __future__ import annotations

import heapq

from repro.cache.block import BlockKey
from repro.cache.policies.base import OfflinePolicy
from repro.errors import PolicyError


class BeladyPolicy(OfflinePolicy):
    """Belady's optimal (for miss ratio) offline replacement."""

    name = "Belady"

    def __init__(self) -> None:
        super().__init__()
        # resident key -> position of its next access (len(seq) = never)
        self._next_of: dict[BlockKey, int] = {}
        self._heap: list[tuple[int, BlockKey]] = []
        # key -> position of its most recent access; lets on_insert find
        # the next use even for re-inserts of pinned eviction victims.
        self._last_access: dict[BlockKey, int] = {}

    def prepare_columnar(self, trace):
        """The base preparation, keeping each access's next *position*
        (``_next_pos_array``) instead of its next time: Belady ranks by
        position in the access sequence, where times tie (one
        request's blocks share a time). Returns the base's
        ``(accesses, starts)``."""
        expanded, next_pos, _, _ = self._prepare_arrays(trace)
        self._next_pos_array = next_pos
        return expanded

    def on_access(self, key: BlockKey, time: float, hit: bool) -> None:
        i = self._advance(key)
        self._last_access[key] = i
        if key in self._next_of:
            self._update(key, self._next_pos[i])

    def on_insert(self, key: BlockKey, time: float) -> None:
        i = self._last_access.get(key)
        if i is None:
            raise PolicyError(
                "Belady: on_insert for a key that was never accessed"
            )
        self._update(key, self._next_pos[i])

    def _update(self, key: BlockKey, next_pos: int) -> None:
        self._next_of[key] = next_pos
        heapq.heappush(self._heap, (-next_pos, key))

    def evict(self, time: float) -> BlockKey:
        while self._heap:
            neg, key = heapq.heappop(self._heap)
            if self._next_of.get(key) == -neg:
                del self._next_of[key]
                return key
            # stale entry (block re-accessed or removed) — skip
        raise PolicyError("Belady: evict with no resident blocks")

    def on_remove(self, key: BlockKey) -> None:
        self._next_of.pop(key, None)

    def __len__(self) -> int:
        return len(self._next_of)
