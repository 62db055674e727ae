"""LIRS — Low Inter-reference Recency Set replacement (Jiang & Zhang,
SIGMETRICS'02).

Cited by the paper as a combinable storage-cache policy. LIRS ranks
blocks by the recency of their *previous* access (inter-reference
recency, IRR): blocks with low IRR ("LIR") occupy most of the cache;
high-IRR blocks ("HIR") pass through a small resident queue ``Q``.

Data structures: stack ``S`` holds LIR blocks plus recently-seen HIR
blocks (resident or ghost); queue ``Q`` holds the resident HIR blocks,
which are the eviction candidates.

Ghost (non-resident HIR) entries are bounded: past ``ghost_capacity``
the bottom-most ghosts leave the stack. Each stack entry carries a
monotone push stamp, so the bottom-most ghost is the ghost with the
smallest stamp, and a lazily invalidated min-heap of ``(stamp, key)``
finds it in O(log n) instead of a scan up from the stack bottom
(DESIGN §10, "LIRS ghost index").
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from enum import Enum, auto

from repro.cache.block import BlockKey
from repro.cache.policies.base import ReplacementPolicy
from repro.errors import ConfigurationError, PolicyError
from repro.snapshot import pack_ints, pack_keys, unpack_ints, unpack_keys


class _Kind(Enum):
    LIR = auto()
    HIR_RESIDENT = auto()
    HIR_GHOST = auto()


#: Stale ghost-heap entries tolerated beyond the live ghosts before the
#: heap is rebuilt: it holds at most ``2 * ghosts + GHOST_HEAP_SLACK``
#: entries, so tiny caches do not rebuild on every ghost that leaves.
GHOST_HEAP_SLACK = 32


class LIRSPolicy(ReplacementPolicy):
    """LIRS replacement.

    Args:
        capacity: Cache size in blocks.
        hir_fraction: Fraction of the cache reserved for resident HIR
            blocks (the original paper suggests ~1%).
        ghost_factor: Bound on non-resident (ghost) stack entries, as a
            multiple of capacity.
    """

    name = "LIRS"

    def __init__(
        self,
        capacity: int,
        hir_fraction: float = 0.01,
        ghost_factor: int = 2,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"LIRS capacity must be >= 1, got {capacity}"
            )
        self.l_hirs = max(1, int(capacity * hir_fraction))
        self.l_lirs = max(1, capacity - self.l_hirs)
        self.ghost_capacity = max(capacity * ghost_factor, 16)
        self._kind: dict[BlockKey, _Kind] = {}
        # S: key -> push stamp; stack order is stamp order
        self._stack: OrderedDict[BlockKey, int] = OrderedDict()
        self._queue: OrderedDict[BlockKey, None] = OrderedDict()  # Q
        self._lir_count = 0
        self._resident = 0
        self._ghosts = 0
        self._stamp = 0
        # (stamp, key) per ghost, plus stale entries of former ghosts
        self._ghost_heap: list[tuple[int, BlockKey]] = []

    # -- internals -----------------------------------------------------------

    def _stack_push(self, key: BlockKey) -> None:
        self._stamp += 1
        self._stack[key] = self._stamp
        self._stack.move_to_end(key)

    def _make_ghost(self, key: BlockKey) -> None:
        """A resident HIR block still on the stack loses residency."""
        self._kind[key] = _Kind.HIR_GHOST
        self._ghosts += 1
        heapq.heappush(self._ghost_heap, (self._stack[key], key))

    def _ghost_left(self) -> None:
        """Count one ghost gone; its heap entry, if any, is now stale.

        Rebuilds the heap from its live entries once stale ones
        outnumber live ghosts plus :data:`GHOST_HEAP_SLACK`, which keeps
        the heap within ``2 * ghosts + GHOST_HEAP_SLACK`` entries at
        amortized O(1) cost per departure.
        """
        self._ghosts -= 1
        heap = self._ghost_heap
        if len(heap) > 2 * self._ghosts + GHOST_HEAP_SLACK:
            kind, stack = self._kind, self._stack
            heap[:] = [
                entry
                for entry in heap
                if kind.get(entry[1]) is _Kind.HIR_GHOST
                and stack.get(entry[1]) == entry[0]
            ]
            heapq.heapify(heap)

    def _prune(self) -> None:
        """Pop the stack bottom until it is a LIR block."""
        while self._stack:
            bottom = next(iter(self._stack))
            kind = self._kind.get(bottom)
            if kind is _Kind.LIR:
                return
            del self._stack[bottom]
            if kind is _Kind.HIR_GHOST:
                del self._kind[bottom]
                self._ghost_left()
            # HIR_RESIDENT blocks stay tracked via Q.

    def _demote_bottom_lir(self) -> None:
        """Turn the stack's bottom LIR block into a resident HIR block."""
        bottom = next(iter(self._stack))
        del self._stack[bottom]
        self._kind[bottom] = _Kind.HIR_RESIDENT
        self._queue[bottom] = None
        self._lir_count -= 1
        self._prune()

    def _limit_ghosts(self) -> None:
        """Drop the bottom-most ghosts until at most ``ghost_capacity``
        remain.

        A heap entry is live only while its key is still a ghost with
        the same push stamp: a ghost's stamp cannot change while it
        stays a ghost, and any later return to the stack restamps it.
        The smallest live stamp is therefore the bottom-most ghost.
        """
        if self._ghosts <= self.ghost_capacity:
            return
        heap = self._ghost_heap
        kind, stack = self._kind, self._stack
        while self._ghosts > self.ghost_capacity:
            stamp, key = heapq.heappop(heap)
            if kind.get(key) is _Kind.HIR_GHOST and stack.get(key) == stamp:
                del stack[key]
                del kind[key]
                self._ghost_left()
        self._prune()

    # -- policy contract ---------------------------------------------------------

    def on_access(self, key: BlockKey, time: float, hit: bool) -> None:
        if not hit:
            return  # classification happens in on_insert
        kind = self._kind.get(key)
        if kind is _Kind.LIR:
            was_bottom = next(iter(self._stack)) == key
            self._stack_push(key)
            if was_bottom:
                self._prune()
        elif kind is _Kind.HIR_RESIDENT:
            if key in self._stack:
                # low IRR proven: promote to LIR
                self._kind[key] = _Kind.LIR
                self._lir_count += 1
                self._stack_push(key)
                self._queue.pop(key, None)
                if self._lir_count > self.l_lirs:
                    self._demote_bottom_lir()
            else:
                # long IRR: stays HIR, gets a fresh stack entry
                self._stack_push(key)
                self._queue.move_to_end(key)
        else:
            raise PolicyError(f"LIRS: hit on untracked block {key}")

    def on_insert(self, key: BlockKey, time: float) -> None:
        kind = self._kind.get(key)
        if kind in (_Kind.LIR, _Kind.HIR_RESIDENT):
            # pinned-victim re-insert; already tracked as resident
            return
        self._resident += 1
        if kind is _Kind.HIR_GHOST:
            # reuse within stack depth: becomes LIR
            self._kind[key] = _Kind.LIR
            self._ghost_left()
            self._lir_count += 1
            self._stack_push(key)
            if self._lir_count > self.l_lirs:
                self._demote_bottom_lir()
            return
        if self._lir_count < self.l_lirs:
            # cold cache: fill the LIR partition directly
            self._kind[key] = _Kind.LIR
            self._lir_count += 1
            self._stack_push(key)
            return
        self._kind[key] = _Kind.HIR_RESIDENT
        self._stack_push(key)
        self._queue[key] = None
        self._limit_ghosts()

    def evict(self, time: float) -> BlockKey:
        if self._queue:
            key, _ = self._queue.popitem(last=False)
            if key in self._stack:
                self._make_ghost(key)
            else:
                del self._kind[key]
            self._resident -= 1
            return key
        # Degenerate case: everything is LIR — evict the stack bottom.
        for key in self._stack:
            if self._kind.get(key) is _Kind.LIR:
                del self._stack[key]
                del self._kind[key]
                self._lir_count -= 1
                self._resident -= 1
                self._prune()
                return key
        raise PolicyError("LIRS: evict with no resident blocks")

    def on_remove(self, key: BlockKey) -> None:
        kind = self._kind.get(key)
        if kind is _Kind.LIR:
            self._stack.pop(key, None)
            del self._kind[key]
            self._lir_count -= 1
            self._resident -= 1
            self._prune()
        elif kind is _Kind.HIR_RESIDENT:
            self._queue.pop(key, None)
            if key in self._stack:
                self._make_ghost(key)
            else:
                del self._kind[key]
            self._resident -= 1

    def __len__(self) -> int:
        return self._resident

    def state_dict(self) -> dict:
        """Every tracked block's kind, the stack with its push stamps,
        the resident HIR queue, and the ghost heap as the exact list it
        is (heap order is not unique, so it is not rebuilt)."""
        heap = self._ghost_heap
        return {
            "kinds": pack_keys(self._kind),
            "kind_values": pack_ints(k.value for k in self._kind.values()),
            "stack": pack_keys(self._stack),
            "stack_stamps": pack_ints(self._stack.values()),
            "queue": pack_keys(self._queue),
            "ghost_heap": pack_keys(key for _, key in heap),
            "ghost_heap_stamps": pack_ints(stamp for stamp, _ in heap),
            "lir_count": self._lir_count,
            "resident": self._resident,
            "ghosts": self._ghosts,
            "stamp": self._stamp,
        }

    def load_state_dict(self, state: dict) -> None:
        columns = {}
        for keys, values in (
            ("kinds", "kind_values"),
            ("stack", "stack_stamps"),
            ("ghost_heap", "ghost_heap_stamps"),
        ):
            columns[keys] = unpack_keys(state[keys])
            columns[values] = unpack_ints(state[values])
            if len(columns[values]) != len(columns[keys]):
                raise ValueError(f"{keys}: keys and values differ in length")
        queue = OrderedDict.fromkeys(unpack_keys(state["queue"]))
        counters = [
            int(state[name])
            for name in ("lir_count", "resident", "ghosts", "stamp")
        ]
        self._kind = dict(
            zip(columns["kinds"], map(_Kind, columns["kind_values"]))
        )
        self._stack = OrderedDict(
            zip(columns["stack"], columns["stack_stamps"])
        )
        self._queue = queue
        self._ghost_heap = list(
            zip(columns["ghost_heap_stamps"], columns["ghost_heap"])
        )
        self._lir_count, self._resident, self._ghosts, self._stamp = counters
