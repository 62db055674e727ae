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
:meth:`OfflinePolicy.prepare` before the run starts; the sequence they
are prepared with must match the ``on_access`` stream exactly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable

from repro.cache.block import BlockKey
from repro.errors import PolicyError


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
    ``self._next_pos`` / ``self._times`` for future knowledge.
    """

    #: Attributes :meth:`prepare_columnar` defers (see ``__getattr__``).
    _LAZY_ATTRS = ("_times", "_keys", "_next_pos", "_first_pos")

    def __init__(self) -> None:
        self._prepared = False
        self._cursor = 0
        self._lazy_cols: tuple | None = None
        self._times: list[float] = []
        self._keys: list[BlockKey] = []
        self._next_pos: list[int] = []
        self._next_time: list[float] = []

    def prepare(self, accesses: Iterable[tuple[float, BlockKey]]) -> None:
        """Load the full future access sequence.

        Args:
            accesses: ``(time, key)`` pairs in the exact order the cache
                will issue ``on_access`` calls. Any iterable works —
                streaming one (see
                :func:`repro.traces.record.iter_accesses`) avoids ever
                materializing the flattened access list.
        """
        times: list[float] = []
        keys: list[BlockKey] = []
        times_append = times.append
        keys_append = keys.append
        for t, k in accesses:
            times_append(t)
            keys_append(k)
        n = len(keys)
        self._times = times
        self._keys = keys
        inf = float("inf")
        self._next_pos = [n] * n
        self._next_time = [inf] * n
        last_seen: dict[BlockKey, int] = {}
        for i in range(n - 1, -1, -1):
            key = self._keys[i]
            nxt = last_seen.get(key, n)
            self._next_pos[i] = nxt
            self._next_time[i] = self._times[nxt] if nxt < n else inf
            last_seen[key] = i
        self._first_pos = last_seen  # first occurrence of each key
        self._lazy_cols = None
        self._cursor = 0
        self._prepared = True

    def prepare_columnar(self, trace) -> bool:
        """Vectorized :meth:`prepare` over a
        :class:`~repro.traces.columnar.ColumnarTrace`.

        Builds exactly the state :meth:`prepare` would — same lists,
        same floats — but derives the next-occurrence arrays with one
        stable lexsort (:func:`repro.core.kernels.next_access_arrays`)
        instead of the reverse Python loop. Returns ``True`` when the
        vectorized path ran; falls back to :meth:`prepare` over the
        expanded access stream (and returns ``False``) when the trace
        has multi-block requests (whose per-block expansion the kernels
        do not model).

        Only ``_next_time`` is materialized as a Python list eagerly
        (the fused loops iterate it directly); ``_times``, ``_keys``,
        ``_next_pos`` and ``_first_pos`` are built on first attribute
        access via ``__getattr__`` — the fused engine loops never read
        them, and at a million requests each deferred ``tolist`` or
        dict build saves hundreds of milliseconds of boxing.
        """
        from repro.core import kernels

        if len(trace) and not bool((trace.nblocks == 1).all()):
            self.prepare(trace.iter_accesses())
            return False
        next_pos, next_time, first_mask = kernels.next_access_arrays(
            trace.disks, trace.blocks, trace.times
        )
        for name in self._LAZY_ATTRS:
            self.__dict__.pop(name, None)
        self._lazy_cols = (trace.disks, trace.blocks, trace.times, next_pos)
        self._next_time = next_time.tolist()
        self._first_mask = first_mask
        self._cursor = 0
        self._prepared = True
        return True

    def __getattr__(self, name: str):
        # Deferred materialization of the columnar-prepare products the
        # fused loops never touch. Scalar paths (``_advance``, Belady's
        # ``_next_pos`` reads, OPG's scalar seeding) hit this once per
        # attribute; the result is cached as a plain instance attribute
        # so subsequent lookups bypass ``__getattr__`` entirely.
        cols = self.__dict__.get("_lazy_cols")
        if cols is None or name not in OfflinePolicy._LAZY_ATTRS:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        disks, blocks, times, next_pos = cols
        if name == "_times":
            value = times.tolist()
        elif name == "_keys":
            value = list(zip(disks.tolist(), blocks.tolist()))
        elif name == "_next_pos":
            value = next_pos.tolist()
        else:  # _first_pos
            keys = self._keys  # may itself materialize lazily
            value = {
                keys[i]: i for i in self._first_mask.nonzero()[0].tolist()
            }
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
