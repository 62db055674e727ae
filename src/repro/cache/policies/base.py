"""Replacement policy interface.

The cache drives a policy through a strict contract:

1. ``on_access(key, time, hit)`` — exactly once per block access, in
   trace order, for hits and misses alike.
2. ``on_insert(key, time)`` — after a miss's ``on_access``, once the
   block enters the cache (post-eviction).
3. ``evict(time)`` — the cache needs a victim; must return a currently
   resident key. May be called multiple times per insertion if a victim
   turns out to be pinned (the cache re-inserts pinned victims via
   ``on_insert``).
4. ``on_remove(key)`` — a block left the cache (eviction the policy
   chose, or external invalidation). The policy must forget it.

Offline policies additionally receive the complete access sequence via
:meth:`OfflinePolicy.prepare_columnar` (or :meth:`OfflinePolicy.prepare`
for ``(time, key)`` pairs) before the run starts; the sequence they are
prepared with must match the ``on_access`` stream exactly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable

from repro.cache.block import BlockKey
from repro.errors import PolicyError

#: Stale entries an offline policy's lazy heap (Belady's, OPG's, the
#: fused OPG loop's) tolerates beyond its live ones: once it holds more
#: than ``2 * live + HEAP_SLACK`` entries it is rebuilt from the live
#: ones, so it stays within about twice the resident blocks at
#: amortized O(1) cost per push, and tiny caches do not rebuild on
#: every push. A live entry is the one a resident block pushed last;
#: the others are skipped when popped, so dropping them early cannot
#: change which block is evicted. LIRS's ghost heap keeps the same rule
#: with its own slack.
HEAP_SLACK = 64


class ReplacementPolicy(ABC):
    """Strategy interface for cache replacement."""

    #: Human-readable policy name, used in reports.
    name: str = "base"

    @abstractmethod
    def on_access(self, key: BlockKey, time: float, hit: bool) -> None:
        """Record one access (hit or miss), in trace order."""

    @abstractmethod
    def on_insert(self, key: BlockKey, time: float) -> None:
        """A block entered the cache (after a miss, or re-insert of a
        pinned victim)."""

    @abstractmethod
    def evict(self, time: float) -> BlockKey:
        """Choose and forget a victim. Must raise
        :class:`~repro.errors.PolicyError` if the policy tracks no
        blocks."""

    @abstractmethod
    def on_remove(self, key: BlockKey) -> None:
        """Forget ``key`` (external removal)."""

    def note_disk_activity(self, disk_id: int, time: float) -> None:
        """The engine observed a disk access outside the read-miss path
        (write-through writes, dirty-eviction write-backs, eager
        flushes). Power-aware policies refine their model of when each
        disk is active; others ignore it."""

    def __len__(self) -> int:  # pragma: no cover - overridden where used
        raise NotImplementedError


class OfflinePolicy(ReplacementPolicy):
    """Base for policies that need the future (Belady, OPG).

    Subclasses call :meth:`_advance` once per ``on_access`` to keep the
    cursor into the prepared sequence synchronized, and read
    ``self._next_time`` (each access's next reference time; Belady
    reads ``self._next_pos``, its position) for future knowledge.
    """

    #: Attributes :meth:`prepare_columnar` defers (see ``__getattr__``).
    _LAZY_ATTRS = ("_keys", "_next_pos", "_next_time")

    def __init__(self) -> None:
        self._prepared = False
        self._cursor = 0
        self._lazy_cols: tuple | None = None

    def prepare(self, accesses: Iterable[tuple[float, BlockKey]]) -> None:
        """Load the full future access sequence.

        Args:
            accesses: ``(time, key)`` pairs in the exact order the cache
                will issue ``on_access`` calls. They are packed into
                single-block columns and prepared by
                :meth:`prepare_columnar`, the one implementation.
        """
        from repro.traces.columnar import ColumnarTrace

        rows = [(t, disk, block) for t, (disk, block) in accesses]
        times, disks, blocks = zip(*rows) if rows else ((), (), ())
        n = len(rows)
        self.prepare_columnar(
            ColumnarTrace(times, disks, blocks, [1] * n, [False] * n)
        )

    def prepare_columnar(self, trace):
        """Load the future from a
        :class:`~repro.traces.columnar.ColumnarTrace`.

        Works on the trace's per-block access columns
        (:meth:`~repro.traces.columnar.ColumnarTrace.block_accesses`)
        and derives the next-occurrence arrays with one stable sort
        (:func:`repro.core.kernels.next_access_arrays`). Returns the
        ``(accesses, starts)`` pair ``block_accesses`` gave, so a run
        hands the same expansion to its fused loop.

        A prepared policy keeps one of the kernel's arrays of future
        knowledge: by default the next-access times
        (``_next_time_array``, float64), which the fused OPG loop boxes
        one chunk at a time; Belady keeps the next-access positions
        instead (``_next_pos_array``). Every prepared policy keeps how
        many distinct blocks the accesses touch (``_key_count``), which
        a run from an unseen cache reports as its cold misses. OPG also
        keeps the kernel's dense key ids (``_key_id_array``), which
        index the fused loop's list of evicted blocks' stamps. No list is
        built here: ``_keys``, ``_next_pos`` and ``_next_time`` are
        built on first attribute access via ``__getattr__`` — the fused
        engine loops never read them, and at a million accesses each
        deferred ``tolist`` saves hundreds of milliseconds of boxing
        and tens of MiB of Python objects.
        """
        expanded, _, next_time, _, _ = self._prepare_arrays(trace)
        self._next_time_array = next_time
        return expanded

    def _prepare_arrays(self, trace):
        """The part every ``prepare_columnar`` shares: expand the
        trace, reset the cursor and the lazy lists, and run the
        next-access kernel, and count the distinct blocks
        (``_key_count``). Returns ``(expanded, next_pos, next_time,
        first_mask, key_ids)``; the caller keeps what its policy reads,
        and the rest is freed when its prepare returns."""
        from repro.core import kernels

        expanded = trace.block_accesses()
        accesses = expanded[0]
        arrays = kernels.next_access_arrays(
            accesses.disks, accesses.blocks, accesses.times
        )
        for name in self._LAZY_ATTRS:
            self.__dict__.pop(name, None)
        self._key_count = int(arrays[2].sum())
        self._lazy_cols = (accesses.disks, accesses.blocks)
        self._cursor = 0
        self._prepared = True
        return (expanded, *arrays)

    def __getattr__(self, name: str):
        # Deferred materialization of the columnar-prepare products the
        # fused loops never touch. Scalar paths (``_advance``, Belady's
        # ``_next_pos`` reads, OPG's scalar ``_next_time`` reads) hit
        # this once per attribute; the result is cached as a plain
        # instance attribute so subsequent lookups bypass
        # ``__getattr__`` entirely. A list whose array the policy did
        # not keep raises AttributeError for the missing array.
        cols = self.__dict__.get("_lazy_cols")
        if cols is None or name not in OfflinePolicy._LAZY_ATTRS:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        if name == "_keys":
            disks, blocks = cols
            value = list(zip(disks.tolist(), blocks.tolist()))
        elif name == "_next_pos":
            value = self._next_pos_array.tolist()
        else:  # _next_time
            value = self._next_time_array.tolist()
        setattr(self, name, value)
        return value

    @property
    def prepared(self) -> bool:
        return self._prepared

    def _advance(self, key: BlockKey) -> int:
        """Consume one access; returns its position in the sequence.

        Raises:
            PolicyError: If the policy was not prepared, the sequence is
                exhausted, or the access does not match the prepared
                sequence (which would silently corrupt future
                knowledge).
        """
        if not self._prepared:
            raise PolicyError(
                f"{self.name}: offline policy used without prepare()"
            )
        i = self._cursor
        if i >= len(self._keys):
            raise PolicyError(f"{self.name}: access beyond prepared sequence")
        if self._keys[i] != key:
            raise PolicyError(
                f"{self.name}: access #{i} is {key}, but the prepared "
                f"sequence expects {self._keys[i]}"
            )
        self._cursor = i + 1
        return i
