"""The storage cache.

:class:`StorageCache` holds block metadata, drives the replacement
policy through its contract, and enforces capacity. It knows nothing
about disks or write semantics — the engine and the write policy react
to the eviction list it returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.block import BlockKey, BlockState, disk_of
from repro.cache.policies.base import ReplacementPolicy
from repro.cache.stats import CacheStats
from repro.errors import ConfigurationError, SimulationError
from repro.observe.events import CacheHit, CacheMiss, Evict, Insert
from repro.snapshot import (
    load_state,
    pack_ints,
    pack_keys,
    state_of,
    unpack_ints,
    unpack_keys,
)


@dataclass(slots=True)
class AccessResult:
    """Outcome of one cache access."""

    hit: bool
    #: Blocks pushed out to make room, with their final state (the
    #: write policy must persist the dirty ones). Callers only read it.
    evicted: list[tuple[BlockKey, BlockState]] = field(default_factory=list)


#: Shared hit result — a hit never carries evictions, so the access
#: path returns this singleton instead of allocating per hit.
_HIT = AccessResult(hit=True)
_EMPTY_MISS_EVICTIONS: list[tuple[BlockKey, BlockState]] = []


class StorageCache:
    """Block cache with pluggable replacement policy.

    Args:
        capacity_blocks: Maximum resident blocks; ``None`` simulates the
            paper's infinite cache (only cold misses reach the disks).
        policy: Replacement policy instance. Ignored for eviction when
            capacity is infinite, but still notified of accesses so
            policy-side statistics remain meaningful.
        probe: Optional event hook (see :mod:`repro.observe`); receives
            :class:`CacheHit` / :class:`CacheMiss` / :class:`Insert` /
            :class:`Evict` events.
    """

    def __init__(
        self,
        capacity_blocks: int | None,
        policy: ReplacementPolicy,
        probe=None,
    ) -> None:
        if capacity_blocks is not None and capacity_blocks < 1:
            raise ConfigurationError(
                f"capacity_blocks must be >= 1 or None, got {capacity_blocks}"
            )
        self.capacity = capacity_blocks
        self.policy = policy
        self.probe = probe
        self.stats = CacheStats()
        self._blocks: dict[BlockKey, BlockState] = {}
        self._dirty_by_disk: dict[int, set[BlockKey]] = {}
        self._pinned = 0

    # -- queries ----------------------------------------------------------

    def __contains__(self, key: BlockKey) -> bool:
        return key in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def state(self, key: BlockKey) -> BlockState:
        """Metadata of a resident block (KeyError if absent)."""
        return self._blocks[key]

    def dirty_blocks(self, disk_id: int) -> list[BlockKey]:
        """Dirty (or logged) blocks belonging to ``disk_id``, sorted by
        block number — the order an eager flush writes them."""
        return sorted(self._dirty_by_disk.get(disk_id, ()))

    def dirty_count(self, disk_id: int) -> int:
        return len(self._dirty_by_disk.get(disk_id, ()))

    @property
    def pinned_count(self) -> int:
        return self._pinned

    # -- snapshots (see repro.snapshot) -----------------------------------------

    def state_dict(self) -> dict:
        """Statistics plus the resident blocks, in insertion order, with
        their state flags (bit 0 dirty, bit 1 logged, bit 2 prefetched).
        The per-disk dirty index and the pinned count are derived from
        the flags on load. The policy is snapshotted by its owner."""
        blocks = self._blocks
        return {
            "stats": state_of(self.stats),
            "blocks": pack_keys(blocks),
            "flags": pack_ints(
                s.dirty | s.logged << 1 | s.prefetched << 2
                for s in blocks.values()
            ),
        }

    def load_state_dict(self, state: dict) -> None:
        keys = unpack_keys(state["blocks"])
        flags = unpack_ints(state["flags"])
        if len(flags) != len(keys):
            raise ValueError(f"{len(keys)} blocks but {len(flags)} flags")
        if self.capacity is not None and len(keys) > self.capacity:
            raise ConfigurationError(
                f"the snapshot holds {len(keys)} resident blocks, more than "
                f"the {self.capacity}-block cache the parameters build"
            )
        load_state(self.stats, state["stats"])
        blocks: dict[BlockKey, BlockState] = {}
        dirty_by_disk: dict[int, set[BlockKey]] = {}
        pinned = 0
        for key, bits in zip(keys, flags):
            block = BlockState(
                dirty=bool(bits & 1),
                logged=bool(bits & 2),
                prefetched=bool(bits & 4),
            )
            blocks[key] = block
            if block.dirty or block.logged:
                dirty_by_disk.setdefault(disk_of(key), set()).add(key)
            pinned += block.logged
        self._blocks = blocks
        self._dirty_by_disk = dirty_by_disk
        self._pinned = pinned

    # -- the access path -----------------------------------------------------

    def access(self, key: BlockKey, time: float, is_write: bool) -> AccessResult:
        """Look up ``key``; on a miss, insert it and evict as needed.

        The caller is responsible for any disk I/O implied by the miss
        and by the returned evictions.
        """
        state = self._blocks.get(key)
        hit = state is not None
        stats = self.stats
        # record_access inlined — this is the hottest call in a run.
        stats.accesses += 1
        if is_write:
            stats.write_accesses += 1
        else:
            stats.read_accesses += 1
        if self.probe is not None:
            if hit:
                self.probe(CacheHit(time, key[0], key[1], is_write))
            else:
                self.probe(CacheMiss(time, key[0], key[1], is_write))
        self.policy.on_access(key, time, hit)
        if hit:
            stats.hits += 1
            if state.prefetched:
                state.prefetched = False
                stats.prefetch_hits += 1
            return _HIT
        stats.misses += 1
        seen = stats._seen
        if key not in seen:
            stats.cold_misses += 1
            seen.add(key)
        evicted = self._make_room(time)
        self._blocks[key] = BlockState()
        self.policy.on_insert(key, time)
        if self.probe is not None:
            self.probe(Insert(time, key[0], key[1], len(self._blocks)))
        return AccessResult(hit=False, evicted=evicted)

    def admit(self, key: BlockKey, time: float) -> AccessResult:
        """Insert a block without a demand access (prefetch admission).

        The replacement policy sees only ``on_insert`` — a prefetch is
        not a reference, so it must not refresh recency or feed the PA
        classifier. No-op if the block is already resident.
        """
        if key in self._blocks:
            return _HIT
        evicted = self._make_room(time)
        self._blocks[key] = BlockState(prefetched=True)
        self.policy.on_insert(key, time)
        self.stats.prefetch_admissions += 1
        if self.probe is not None:
            self.probe(
                Insert(time, key[0], key[1], len(self._blocks), prefetched=True)
            )
        return AccessResult(hit=False, evicted=evicted)

    def _make_room(self, time: float) -> list[tuple[BlockKey, BlockState]]:
        blocks = self._blocks
        capacity = self.capacity
        if capacity is None or len(blocks) < capacity:
            return _EMPTY_MISS_EVICTIONS
        policy = self.policy
        stats = self.stats
        evicted: list[tuple[BlockKey, BlockState]] = []
        while len(blocks) >= capacity:
            # Pinned victims are set aside (not re-inserted) until a
            # real victim is found: the policy forgets each candidate
            # as it offers it, so every round makes progress even for
            # policies whose ranking would re-offer the same pinned
            # block forever (Belady, OPG).
            skipped: list[BlockKey] | None = None
            victim = None
            state = None
            while len(policy):
                candidate = policy.evict(time)
                state = blocks.get(candidate)
                if state is None:
                    raise SimulationError(
                        f"policy evicted non-resident block {candidate}"
                    )
                if state.pinned:
                    if skipped is None:
                        skipped = [candidate]
                    else:
                        skipped.append(candidate)
                    continue
                victim = candidate
                break
            if skipped is not None:
                for key in skipped:
                    policy.on_insert(key, time)
            if victim is None:
                raise SimulationError(
                    "cache cannot evict: all resident blocks are pinned "
                    f"({self._pinned} logged blocks); the write policy "
                    "must flush before the cache fills with pinned blocks"
                )
            # _forget inlined, reusing the state fetched above.
            del blocks[victim]
            dirty_or_logged = state.dirty or state.logged
            if dirty_or_logged:
                if state.logged:
                    self._pinned -= 1
                bucket = self._dirty_by_disk.get(victim[0])
                if bucket is not None:
                    bucket.discard(victim)
            stats.evictions += 1
            if state.dirty:
                stats.dirty_evictions += 1
            if self.probe is not None:
                self.probe(
                    Evict(
                        time,
                        victim[0],
                        victim[1],
                        dirty_or_logged,
                        len(blocks),
                    )
                )
            evicted.append((victim, state))
        return evicted

    # -- metadata transitions -------------------------------------------------

    def mark_dirty(self, key: BlockKey) -> None:
        state = self._blocks[key]
        if not (state.dirty or state.logged):
            self._dirty_by_disk.setdefault(disk_of(key), set()).add(key)
        state.dirty = True

    def mark_logged(self, key: BlockKey) -> None:
        """WTDU: the block's latest data went to the log region."""
        state = self._blocks[key]
        if not (state.dirty or state.logged):
            self._dirty_by_disk.setdefault(disk_of(key), set()).add(key)
        if not state.logged:
            self._pinned += 1
        state.logged = True

    def mark_clean(self, key: BlockKey) -> None:
        """The block's data reached its home disk."""
        state = self._blocks[key]
        if state.logged:
            self._pinned -= 1
        if state.dirty or state.logged:
            bucket = self._dirty_by_disk.get(disk_of(key))
            if bucket is not None:
                bucket.discard(key)
        state.dirty = False
        state.logged = False

    def invalidate(self, key: BlockKey) -> BlockState | None:
        """Drop a block outright (returns its state, or None)."""
        state = self._blocks.get(key)
        if state is None:
            return None
        self._forget(key)
        self.policy.on_remove(key)
        return state

    def _forget(self, key: BlockKey) -> None:
        state = self._blocks.pop(key)
        if state.logged:
            self._pinned -= 1
        if state.dirty or state.logged:
            bucket = self._dirty_by_disk.get(disk_of(key))
            if bucket is not None:
                bucket.discard(key)
