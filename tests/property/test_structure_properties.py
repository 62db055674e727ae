"""Property-based tests for supporting data structures (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bloom import BloomFilter
from repro.core.deterministic import DiskTimeline
from repro.core.histogram import IntervalHistogram
from repro.cache.write.log_region import LogRegion

keys = st.tuples(
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=10_000),
)


@given(st.lists(keys, max_size=300))
@settings(max_examples=60)
def test_bloom_no_false_negatives(key_list):
    bloom = BloomFilter(num_bits=1 << 14, num_hashes=3)
    for key in key_list:
        bloom.add(key)
    assert all(key in bloom for key in key_list)


@given(st.lists(keys, max_size=200))
@settings(max_examples=60)
def test_bloom_check_and_add_never_reports_seen_as_cold(key_list):
    bloom = BloomFilter(num_bits=1 << 14, num_hashes=3)
    seen = set()
    for key in key_list:
        warm = bloom.check_and_add(key)
        if key in seen:
            assert warm, "a genuinely-seen key must never look cold"
        seen.add(key)


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1e5, allow_nan=False), max_size=300
    )
)
@settings(max_examples=60)
def test_histogram_cdf_properties(intervals):
    hist = IntervalHistogram()
    for x in intervals:
        hist.add(x)
    assert hist.total == len(intervals)
    if intervals:
        assert hist.cdf(1e9) == 1.0
        # quantile(0) is the smallest edge; quantile(1) >= quantile(0.5)
        assert hist.quantile(1.0) >= hist.quantile(0.5)


@given(
    st.lists(
        st.floats(min_value=0.001, max_value=1e4, allow_nan=False),
        min_size=1,
        max_size=120,
        unique=True,
    ),
    st.floats(min_value=0.001, max_value=1e4, allow_nan=False),
)
@settings(max_examples=80)
def test_timeline_neighbors_bracket_query(times, query):
    tl = DiskTimeline(start=0.0, end=1e6)
    for t in times:
        tl.insert_tuple(t)
    leader, follower, _ = tl.neighbors_tuple(query)
    assert leader <= query <= follower
    # no known point lies strictly between leader/query or query/follower
    for t in times:
        if t != query:
            assert not (leader < t < query)
            assert not (query < t < follower)


@given(st.lists(st.integers(min_value=0, max_value=50), max_size=60))
@settings(max_examples=60)
def test_log_region_recovery_reflects_unflushed_only(blocks):
    """Whatever the append/flush interleaving, recovery returns exactly
    the keys appended since the last flush."""
    region = LogRegion(256)
    since_flush: dict = {}
    for i, b in enumerate(blocks):
        if b % 7 == 0:
            region.flush()
            since_flush.clear()
        else:
            region.append((0, b))
            since_flush.pop((0, b), None)
            since_flush[(0, b)] = None
    assert region.recover() == list(since_flush)
