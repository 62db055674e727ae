"""OPG — the Offline Power-aware Greedy replacement algorithm
(Section 3.2 of the paper).

For every resident block ``x`` with next access at time ``t``, let
``l``/``f`` be the distances from ``t`` to its disk's *leader* and
*follower* deterministic misses. If ``x`` stays cached the disk sleeps
through one idle period of length ``l + f``; if ``x`` is evicted, its
re-fetch splits that period in two. The **energy penalty** of evicting
``x`` is therefore::

    penalty(x) = E(l) + E(f) - E(l + f)

where ``E`` is the idle-period energy function of the disk power
management scheme in force (the Figure 2 lower envelope for Oracle DPM,
the threshold-schedule walk for Practical DPM). OPG evicts the block
with the smallest penalty, breaking ties toward the largest forward
distance (Belady's rule).

The threshold knob ``theta`` rounds every penalty below ``theta`` up to
``theta``: at ``theta = 0`` this is pure OPG; as ``theta`` grows, more
evictions tie and the Belady tie-break dominates, recovering Belady's
algorithm in the limit — exactly the spectrum Section 3.2 describes.

Complexity: each timeline insertion re-evaluates only the blocks whose
next access falls inside the split gap; a lazy min-heap (entries are
stamped, stale ones discarded on pop) yields the victim. Penalties only
*decrease* when a gap is split (E is concave), so a stale heap entry is
never smaller than the fresh one — min-extraction stays exact. A
block's stamps only grow, so a stale entry never becomes live again,
and the heap is rebuilt from its live entries once stale ones
outnumber live ones plus :data:`~repro.cache.policies.base.HEAP_SLACK`.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

from repro.cache.block import BlockKey
from repro.cache.policies.base import HEAP_SLACK, OfflinePolicy
from repro.core.chunked import ChunkedSortedList
from repro.core.deterministic import DiskTimeline
from repro.errors import PolicyError

#: Idle-period energy function: seconds -> joules.
EnergyFn = Callable[[float], float]

_INF = math.inf


class OPGPolicy(OfflinePolicy):
    """Offline power-aware greedy replacement.

    Args:
        energy_fn: Idle-period energy of the DPM scheme the disks run
            (e.g. ``OracleDPM.idle_energy`` or
            ``PracticalDPM.idle_energy``). Must be concave and
            non-decreasing with ``energy_fn(0) == 0`` for the lazy-heap
            optimization to be exact; the built-in DPM schemes satisfy
            this.
        theta: Penalty threshold (joules). 0 = pure OPG; large values
            recover Belady's algorithm.
        start_time: Simulation epoch (disks known active then).
        tail_s: Idle horizon beyond the last access. The disk idles on
            after the trace ends, so a miss near the end still splits a
            real idle period; without this headroom, blocks whose next
            reference falls near the trace end would compute a spurious
            zero penalty and lose their protection.
    """

    name = "OPG"

    def __init__(
        self,
        energy_fn: EnergyFn,
        theta: float = 0.0,
        start_time: float = 0.0,
        tail_s: float = 60.0,
    ) -> None:
        super().__init__()
        if theta < 0:
            raise PolicyError(f"theta must be >= 0, got {theta}")
        if tail_s < 0:
            raise PolicyError(f"tail_s must be >= 0, got {tail_s}")
        self._energy = energy_fn
        self.theta = theta
        self.tail_s = tail_s
        self._start_time = start_time
        self._timelines: dict[int, DiskTimeline] = {}
        # per-disk sorted (next_access_time, block_no) tuples for
        # residents — the range structure for gap-split re-evaluation;
        # chunked for the same O(√n) mutation bound as the timelines
        self._res: dict[int, ChunkedSortedList] = {}
        self._next_of: dict[BlockKey, float] = {}
        self._stamp: dict[BlockKey, int] = {}
        self._last_access: dict[BlockKey, int] = {}
        # heap of (effective_penalty, -next_time, stamp, disk, block)
        self._heap: list[tuple[float, float, int, int, int]] = []

    # -- preparation -----------------------------------------------------

    def prepare_columnar(self, trace):
        """The base preparation (next-access arrays, of which OPG keeps
        the times and the dense key ids), then the deterministic-miss
        seeding: every cold miss is a known disk access (the first
        access to each block misses under any policy), so each disk's
        timeline is bulk-loaded from its sorted unique first-access
        times (:func:`repro.core.kernels.first_times_by_disk`,
        :meth:`DiskTimeline.from_sorted`). The fused loop keeps
        evicted blocks' stamps in a list of ``_key_count`` entries,
        indexed by each access's key id (``_key_id_array``, int32
        while the ids fit; the engine drops it for a run that takes
        no fused OPG loop). Returns the base's ``(accesses, starts)``."""
        from repro.core import kernels

        expanded, _, next_time, first_mask, key_ids = self._prepare_arrays(
            trace
        )
        self._next_time_array = next_time
        self._key_id_array = (
            key_ids.astype("int32") if self._key_count < 2**31 else key_ids
        )
        accesses = expanded[0]
        end = float(trace.times[-1]) if len(trace) else self._start_time
        self._timelines = {}
        self._res = {}
        self._trace_end = end + self.tail_s
        for disk, first_times in kernels.first_times_by_disk(
            accesses.disks, accesses.times, first_mask
        ):
            self._timelines[disk] = DiskTimeline.from_sorted(
                first_times, start=self._start_time, end=self._trace_end
            )
            self._res[disk] = ChunkedSortedList()
        return expanded

    def _timeline(self, disk: int) -> DiskTimeline:
        tl = self._timelines.get(disk)
        if tl is None:
            tl = DiskTimeline(start=self._start_time, end=self._trace_end)
            self._timelines[disk] = tl
            self._res[disk] = ChunkedSortedList()
        return tl

    # -- penalties -----------------------------------------------------------

    def _penalty(self, disk: int, next_time: float) -> float:
        """Energy penalty of a miss at ``next_time`` on ``disk``."""
        if next_time == _INF:
            return 0.0  # never re-referenced: evicting costs nothing
        leader, follower, coincident = self._timeline(disk).neighbors_tuple(
            next_time
        )
        if coincident:  # the disk is active at next_time anyway
            return 0.0
        lead = next_time - leader
        follow = follower - next_time
        if follow < 0:
            follow = 0.0  # next access beyond the trace end
        e = self._energy
        return max(0.0, e(lead) + e(follow) - e(lead + follow))

    def _push(self, key: BlockKey) -> None:
        """(Re)compute a block's penalty and push a fresh heap entry;
        rebuild the heap from its live entries once stale ones
        outnumber them plus ``HEAP_SLACK``."""
        disk, block = key
        next_of = self._next_of
        stamps = self._stamp
        nt = next_of[key]
        stamp = stamps.get(key, 0) + 1
        stamps[key] = stamp
        penalty = max(self._penalty(disk, nt), self.theta)
        heap = self._heap
        heapq.heappush(heap, (penalty, -nt, stamp, disk, block))
        if len(heap) > 2 * len(next_of) + HEAP_SLACK:
            heap[:] = [
                e
                for e in heap
                if (e[3], e[4]) in next_of and stamps[e[3], e[4]] == e[2]
            ]
            heapq.heapify(heap)

    def _split_gap(self, disk: int, time: float) -> None:
        """A new known access at ``time``: re-evaluate blocks in the gap."""
        nb = self._timeline(disk).insert_tuple(time)
        if nb is None:
            return  # already known; no penalties change
        # residents with leader < next_time < follower, exclusive on
        # both ends ((leader, _INF) outranks every real (leader, blk))
        gap = self._res[disk].irange(
            (nb[0], _INF), (nb[1],), inclusive=(False, False)
        )
        for nt, block in gap:
            self._push((disk, block))

    # -- residency bookkeeping --------------------------------------------------

    def _track(self, key: BlockKey, next_time: float) -> None:
        disk, block = key
        self._timeline(disk)  # ensure structures exist
        # never-referenced-again residents stay out of the range
        # structure: a gap walk's upper bound (the follower) is always
        # finite, so an infinite next time can never fall inside one
        if next_time != _INF:
            self._res[disk].add((next_time, block))
        self._next_of[key] = next_time
        self._push(key)

    def _untrack(self, key: BlockKey) -> None:
        disk, block = key
        nt = self._next_of.pop(key)
        if nt != _INF:
            self._res[disk].discard((nt, block))
        self._stamp[key] = self._stamp.get(key, 0) + 1  # invalidate heap

    # -- policy contract -------------------------------------------------------------

    def on_access(self, key: BlockKey, time: float, hit: bool) -> None:
        i = self._advance(key)
        self._last_access[key] = i
        if hit:
            # the block's next reference moved into the future
            self._untrack(key)
            self._track(key, self._next_time[i])
        else:
            # an actual disk access: the disk is known active now
            self._split_gap(key[0], time)

    def on_insert(self, key: BlockKey, time: float) -> None:
        if key in self._next_of:
            return  # pinned-victim re-insert; tracking is intact
        i = self._last_access.get(key)
        if i is None:
            raise PolicyError("OPG: on_insert for a key never accessed")
        self._track(key, self._next_time[i])

    def evict(self, time: float) -> BlockKey:
        while self._heap:
            penalty, neg_nt, stamp, disk, block = heapq.heappop(self._heap)
            key = (disk, block)
            if self._stamp.get(key) != stamp or key not in self._next_of:
                continue  # stale entry
            nt = self._next_of[key]
            self._untrack(key)
            # the evicted block's next reference is now a deterministic miss
            if nt != _INF:
                self._split_gap(disk, nt)
            return key
        raise PolicyError("OPG: evict with no resident blocks")

    def on_remove(self, key: BlockKey) -> None:
        if key not in self._next_of:
            return
        nt = self._next_of[key]
        self._untrack(key)
        if nt != _INF:
            # its next access will miss regardless
            self._split_gap(key[0], nt)

    def note_disk_activity(self, disk_id: int, time: float) -> None:
        # Policy-initiated disk writes (write-backs, flushes) are real
        # activity: record them so future penalties see the disk as
        # awake at this instant.
        if self._prepared:
            self._split_gap(disk_id, time)

    def __len__(self) -> int:
        return len(self._next_of)
