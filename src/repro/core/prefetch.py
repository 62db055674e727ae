"""Power-aware prefetching (the paper's Section 8 future work).

The paper cites Papathanasiou & Scott's insight — make disk traffic
*burstier* by fetching more while the disk is spinning anyway — and
names prefetching as the natural extension of its cache-level approach.
This module implements that extension at the storage cache:

When a demand read misses and the disk had to spin up (or is spinning),
the prefetcher rides the same activation to pull in the next
``depth`` sequentially-following blocks. Sequential runs (file scans,
table scans) then hit in the cache instead of re-waking the disk —
exactly the idle-period *reshaping* the rest of the paper performs via
replacement policy, applied to the fetch path.

Prefetched blocks are admitted without a demand access, so offline
policies (whose future knowledge is a prepared demand sequence) cannot
be combined with prefetching; the engine enforces that.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.cache.block import BlockKey
from repro.cache.cache import StorageCache
from repro.errors import ConfigurationError


class Prefetcher(ABC):
    """Strategy interface: decide what to fetch alongside a demand miss."""

    name: str = "base"

    @abstractmethod
    def plan(
        self,
        key: BlockKey,
        woke_disk: bool,
        time: float,
        cache: StorageCache,
        disk_blocks: int,
    ) -> list[BlockKey]:
        """Blocks to prefetch after a demand miss on ``key``.

        Args:
            key: The block whose demand read just got serviced.
            woke_disk: Whether that read paid a spin-up.
            time: Request arrival time.
            cache: The storage cache (to skip already-resident blocks).
            disk_blocks: Address-space bound of the disk.

        Returns:
            Contiguous, ascending block keys on the same disk (possibly
            empty). The engine fetches them in one disk operation.
        """


class NoPrefetch(Prefetcher):
    """The default: never prefetch."""

    name = "none"

    def plan(self, key, woke_disk, time, cache, disk_blocks):
        return []


class SequentialWakePrefetcher(Prefetcher):
    """Sequential read-ahead that rides paid-for disk activations.

    Args:
        depth: Maximum blocks fetched beyond the demand block.
        only_on_wake: If True (the power-aware mode), prefetch only when
            the demand read actually spun the disk up — the marginal
            energy is then just transfer time, and the fetched blocks
            postpone the *next* spin-up. If False, behave like classic
            unconditional read-ahead.
    """

    name = "sequential-wake"

    def __init__(self, depth: int = 8, only_on_wake: bool = True) -> None:
        if depth < 1:
            raise ConfigurationError(f"depth must be >= 1, got {depth}")
        self.depth = depth
        self.only_on_wake = only_on_wake
        self.planned_blocks = 0

    def plan(self, key, woke_disk, time, cache, disk_blocks):
        if self.only_on_wake and not woke_disk:
            return []
        disk, block = key
        plan: list[BlockKey] = []
        for offset in range(1, self.depth + 1):
            candidate = block + offset
            if candidate >= disk_blocks:
                break
            candidate_key = (disk, candidate)
            if candidate_key in cache:
                break  # run already resident: stop at the boundary
            plan.append(candidate_key)
        self.planned_blocks += len(plan)
        return plan

    def state_dict(self) -> dict:
        return {"planned_blocks": self.planned_blocks}

    def load_state_dict(self, state: dict) -> None:
        self.planned_blocks = int(state["planned_blocks"])
