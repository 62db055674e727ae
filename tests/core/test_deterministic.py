"""Tests for the deterministic-miss timeline."""

import math

from repro.core.deterministic import DiskTimeline


class TestDiskTimeline:
    def test_start_is_initial_leader(self):
        tl = DiskTimeline(start=0.0, end=100.0)
        leader, follower, coincident = tl.neighbors_tuple(50.0)
        assert leader == 0.0
        assert follower == 100.0
        assert not coincident

    def test_insert_returns_pre_insertion_neighbors(self):
        tl = DiskTimeline(start=0.0, end=100.0)
        leader, follower = tl.insert_tuple(40.0)
        assert leader == 0.0 and follower == 100.0
        leader2, follower2 = tl.insert_tuple(60.0)
        assert leader2 == 40.0 and follower2 == 100.0

    def test_duplicate_insert_returns_none(self):
        tl = DiskTimeline()
        assert tl.insert_tuple(10.0) is not None
        assert tl.insert_tuple(10.0) is None

    def test_neighbors_between_points(self):
        tl = DiskTimeline(start=0.0, end=100.0)
        tl.insert_tuple(20.0)
        tl.insert_tuple(80.0)
        leader, follower, _ = tl.neighbors_tuple(50.0)
        assert leader == 20.0 and follower == 80.0

    def test_coincident_detection(self):
        tl = DiskTimeline(start=0.0, end=100.0)
        tl.insert_tuple(20.0)
        tl.insert_tuple(80.0)
        leader, follower, coincident = tl.neighbors_tuple(20.0)
        assert coincident
        assert leader == 0.0  # previous point
        assert follower == 80.0  # next point

    def test_contains(self):
        tl = DiskTimeline()
        tl.insert_tuple(5.0)
        assert 5.0 in tl
        assert 6.0 not in tl

    def test_default_end_is_inf(self):
        tl = DiskTimeline()
        assert math.isinf(tl.neighbors_tuple(1e12)[1])

    def test_ordering_maintained(self):
        tl = DiskTimeline(start=0.0, end=1000.0)
        for t in (50.0, 10.0, 30.0, 70.0):
            tl.insert_tuple(t)
        leader, follower, _ = tl.neighbors_tuple(40.0)
        assert leader == 30.0 and follower == 50.0


class TestFromSorted:
    """Bulk construction, including the times-precede-start merge.

    ``from_sorted`` promises "exactly the state of inserting each time
    one by one". The branch where ``times[0] < start`` used to fall
    back to per-element ``insert_tuple`` calls — O(n) memmoves each, O(n^2)
    for the build — so it gets a dedicated equivalence check alongside
    the common start-leads case.
    """

    def _incremental(self, times, start, end):
        tl = DiskTimeline(start=start, end=end)
        for t in times:
            tl.insert_tuple(t)
        return tl

    def test_start_precedes_all_times(self):
        times = [10.0, 20.0, 30.0]
        tl = DiskTimeline.from_sorted(times, start=0.0, end=100.0)
        ref = self._incremental(times, start=0.0, end=100.0)
        assert tl._times.to_list() == ref._times.to_list()
        assert len(tl._times) == len(ref._times)

    def test_times_precede_start_single_merge(self):
        # Regression: start merged mid-sequence, not prepended.
        times = [1.0, 2.0, 5.0, 7.0]
        tl = DiskTimeline.from_sorted(times, start=3.0, end=100.0)
        assert tl._times.to_list() == [1.0, 2.0, 3.0, 5.0, 7.0]
        assert 3.0 in tl and 1.0 in tl
        leader, follower, _ = tl.neighbors_tuple(4.0)
        assert leader == 3.0 and follower == 5.0

    def test_start_already_known_not_duplicated(self):
        times = [1.0, 3.0, 7.0]
        tl = DiskTimeline.from_sorted(times, start=3.0, end=100.0)
        assert tl._times.to_list() == [1.0, 3.0, 7.0]

    def test_before_start_build_matches_incremental(self):
        # The merge branch produces the same state as one-by-one
        # inserts across chunk boundaries (load-sized sequences).
        times = [float(t) for t in range(2000)]
        start = 1234.5
        tl = DiskTimeline.from_sorted(times, start=start, end=1e9)
        ref = self._incremental(times, start=start, end=1e9)
        assert tl._times.to_list() == ref._times.to_list()
        assert len(tl._times) == len(ref._times)
        assert len(tl) == 2001  # 2000 times + the merged start

    def test_empty_times_still_seeds_start(self):
        tl = DiskTimeline.from_sorted([], start=5.0, end=10.0)
        assert tl._times.to_list() == [5.0]
        assert 5.0 in tl
