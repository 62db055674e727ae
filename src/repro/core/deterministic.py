"""Deterministic-miss timelines for OPG (Section 3.2).

OPG reasons about *deterministic misses*: accesses that are bound to
reach the disk no matter what the replacement algorithm does from now
on — initially every cold miss, plus (after each eviction) the evicted
block's next reference. For penalty computation what matters per disk
is the sorted set of times the disk is known to be active: past actual
accesses and future deterministic misses. A block access at time ``t``
has a *leader* (closest known access at or before ``t``) and a
*follower* (closest known access after ``t``); evicting the block
splits the leader→follower idle period in two.

The sorted set itself is a :class:`~repro.core.chunked.
ChunkedSortedList`: timelines on the bench workloads grow to tens of
thousands of entries and take ~724k inserts per million requests, so a
flat ``list.insert`` (an O(n) memmove each) made OPG degrade with
scale (DESIGN §10 "Chunked timelines").
"""

from __future__ import annotations

import bisect
import math

from repro.core.chunked import ChunkedSortedList


class DiskTimeline:
    """Sorted set of known access times for one disk.

    The simulation start acts as the initial leader (the disk spins up
    at time zero); ``end`` (the trace end) acts as the final follower.
    ``start`` is itself a member of the set, so the ``start``/``end``
    attributes only substitute for neighbors *outside* the stored
    range. :meth:`neighbors_tuple` and :meth:`insert_tuple` answer
    with plain tuples, which the fused OPG loop reads without boxing.
    """

    __slots__ = ("_times", "start", "end")

    def __init__(self, start: float = 0.0, end: float = math.inf) -> None:
        # One sorted container answers membership too: every "is this
        # time already known?" question falls out of the bisect that
        # locates the time's neighbors (the ``coincident`` flag of
        # :meth:`neighbors_tuple`, the ``None`` of :meth:`insert_tuple`).
        self._times = ChunkedSortedList.from_sorted((start,))
        self.start = start
        self.end = end

    @classmethod
    def from_sorted(
        cls, times, start: float = 0.0, end: float = math.inf
    ) -> "DiskTimeline":
        """Bulk-build from ascending unique times (vectorized seeding).

        Produces exactly the state of inserting each time one by one —
        OPG's prepare uses it with the per-disk sorted
        first-access sweep from :mod:`repro.core.kernels`. ``times``
        may be any sequence (numpy array included) sorted strictly
        ascending; ``start`` is merged into place wherever it falls
        (one O(n) pass, even when times precede the epoch).
        """
        tl = cls(start=start, end=end)
        seq = times.tolist() if hasattr(times, "tolist") else list(times)
        i = bisect.bisect_left(seq, start)
        if not (i < len(seq) and seq[i] == start):
            seq.insert(i, start)
        tl._times = ChunkedSortedList.from_sorted(seq)
        return tl

    def __len__(self) -> int:
        return len(self._times)

    def __contains__(self, time: float) -> bool:
        return time in self._times

    def neighbors_tuple(self, time: float) -> tuple[float, float, bool]:
        """Leader/follower for a prospective access at ``time`` as a
        ``(leader, follower, coincident)`` tuple; ``coincident`` is set
        when the time is an already-known disk access, so a miss there
        is free (the disk is active anyway)."""
        leader, follower, coincident = self._times.neighbors(time)
        return (
            self.start if leader is None else leader,
            self.end if follower is None else follower,
            coincident,
        )

    def insert_tuple(self, time: float) -> tuple[float, float] | None:
        """Add a known access time.

        Returns the *pre-insertion* ``(leader, follower)`` when the
        time was new (callers re-evaluate penalties of blocks in that
        gap), or ``None`` if the time was already known.
        """
        nb = self._times.insert_unique(time)
        if nb is None:
            return None
        leader, follower = nb
        return (
            self.start if leader is None else leader,
            self.end if follower is None else follower,
        )
