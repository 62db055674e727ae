"""Memory a batch run holds: the cache and one chunk, not the trace.

The fused PA-LRU loop used to box all four access columns and its
whole Bloom cold mask and epoch-roll plan into Python lists before the
first access, about 100 bytes an access on top of the columns. It now
boxes one ``CHUNK_ROWS`` chunk at a time, so on a trace of several
chunks the boxed rows are a fraction of the peak. No batch loop keeps
the exact cold-miss set: each counts its cold misses from the trace.
Every loop folds a chunk's response samples into float64 once the
chunk ran, and the offline policies' lazy heaps (and the fused OPG
loop's) are rebuilt from their live entries once stale ones outnumber
them, so a heap follows the resident blocks, not the accesses.
"""

import tracemalloc

import numpy as np
import pytest

from repro.cache.policies.base import HEAP_SLACK
from repro.sim import engine
from repro.sim.config import SimulationConfig
from repro.sim.runner import build_policy, build_session, run_simulation
from repro.traces import columnar
from repro.traces.columnar import CHUNK_ROWS, ColumnarTrace
from repro.traces.zoo import CDNTraceConfig, generate_cdn_trace


def _hit_heavy_trace(rows: int) -> ColumnarTrace:
    # 8 disks x 300 blocks against a 2048-block cache: mostly hits, so
    # the run allocates little besides the rows it boxes. Block ids sit
    # above CPython's small-int cache, as real block numbers do.
    rng = np.random.default_rng(5)
    return ColumnarTrace(
        np.cumsum(rng.exponential(0.02, rows)),
        rng.integers(0, 8, rows),
        rng.integers(0, 300, rows) + 10_000,
        np.ones(rows, dtype=np.int64),
        rng.random(rows) < 0.2,
    )


def test_fused_pa_lru_peak_per_access_is_bounded():
    trace = _hit_heavy_trace(4 * CHUNK_ROWS + 1000)
    tracemalloc.start()
    try:
        result = run_simulation(
            trace,
            "pa-lru",
            num_disks=8,
            cache_blocks=2048,
            write_policy="write-back",
            dpm="practical",
            pa_epoch_s=60.0,
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.cache_accesses == len(trace)
    # about 56 B an access with chunked boxing (one boxed chunk, the
    # response samples, the plan arrays); boxing the whole trace up
    # front took about 127
    assert peak / len(trace) < 85


def _cold_heavy_trace(rows: int) -> ColumnarTrace:
    # 8 disks x 8 * rows block ids: 99% of the accesses touch a block
    # for the first time. Block ids sit above the small-int cache.
    rng = np.random.default_rng(9)
    return ColumnarTrace(
        np.cumsum(rng.exponential(0.02, rows)),
        rng.integers(0, 8, rows),
        rng.integers(0, 8 * rows, rows) + 10_000,
        np.ones(rows, dtype=np.int64),
        rng.random(rows) < 0.2,
    )


@pytest.mark.parametrize("policy, bound", [("pa-lru", 110), ("opg", 140)])
def test_a_fused_run_holds_no_cold_miss_set(policy, bound, monkeypatch):
    """A fused run counts its cold misses as the trace's distinct
    blocks, exactly, and ends holding neither ``CacheStats._seen`` nor
    PA's ``_home`` map.

    The bound is on what the run still holds when it ends, per access:
    on a trace this small the Bloom kernel's fixed working set sets
    PA-LRU's peak. Measured: PA-LRU 22.0 B an access (40.7 while the
    samples stayed boxed floats, 179.4 while the loop kept ``_seen``
    and ``_home``); OPG 76.4 (192.5 while evicted blocks' stamps sat
    in a tuple-keyed dict and the samples stayed boxed, 309.3 with
    ``_seen`` too). The OPG bound sits about halfway.
    """
    monkeypatch.setattr(columnar, "CHUNK_ROWS", 2048)
    trace = _cold_heavy_trace(4 * 2048 + 100)
    params = dict(num_disks=8, cache_blocks=256, pa_epoch_s=60.0)
    reference = run_simulation(trace.to_requests(), policy, **params)
    # a first fused run does the lazy imports outside the measurement
    build_session(trace[:100], policy, **params).run_batch()
    session = build_session(trace, policy, **params)
    simulator = session.simulator
    assert simulator._fused_loop_for() is not None
    tracemalloc.start()
    try:
        result = session.run_batch()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.cold_misses == reference.cold_misses
    assert result.cold_misses > 0.9 * len(trace)
    assert not simulator.cache.stats._seen
    if policy == "pa-lru":
        assert not simulator.policy._home
    assert held / len(trace) < bound


@pytest.mark.parametrize(
    "name, kept", [("opg", "_next_time_array"), ("belady", "_next_pos_array")]
)
def test_a_prepared_offline_policy_holds_one_future_array(name, kept):
    """Prepare keeps the one per-access kernel array of future
    knowledge its policy reads (OPG also keeps each access's dense key
    id, under which the fused loop files evicted blocks' stamps), and
    the expansion's all-ones ``nblocks`` column takes no memory."""
    trace = generate_cdn_trace(CDNTraceConfig(duration_s=4.0, num_disks=3))
    policy = build_policy(name, SimulationConfig(3, 64))
    accesses, starts = policy.prepare_columnar(trace)
    assert starts is not None  # a multi-block trace, expanded
    assert accesses.nblocks.strides == (0,)
    assert (accesses.nblocks == 1).all()
    arrays = {k for k, v in vars(policy).items() if isinstance(v, np.ndarray)}
    if name == "opg":
        assert arrays == {kept, "_key_id_array"}
        ids = policy._key_id_array
        assert ids.dtype == np.int32 and len(ids) == len(accesses)
        assert int(ids.max()) + 1 == policy._key_count
    else:
        assert arrays == {kept}
    # the lazy key list's columns are the expansion's own
    disks, blocks = policy._lazy_cols
    assert disks is accesses.disks and blocks is accesses.blocks


def _multiblock_hit_heavy_trace(rows: int) -> ColumnarTrace:
    # 8 disks x 47 block ids, 1-8 blocks a request, against a 512-block
    # cache: after warm-up every access hits, so few blocks are ever
    # seen and a per-access array would dominate the run's memory.
    rng = np.random.default_rng(5)
    return ColumnarTrace(
        np.cumsum(rng.exponential(0.02, rows)),
        rng.integers(0, 8, rows),
        rng.integers(0, 40, rows) + 10_000,
        rng.integers(1, 9, rows),
        rng.random(rows) < 0.2,
    )


@pytest.mark.parametrize(
    "make_trace, cache_blocks, cold_share, bound",
    [
        pytest.param(
            _cold_heavy_trace, 256, (0.9, 1.0), 125, id="single-block-cold"
        ),
        pytest.param(
            _multiblock_hit_heavy_trace, 512, (0.0, 0.02), 25,
            id="multi-block-hit",
        ),
    ],
)
def test_a_generic_loop_batch_run_holds_no_cold_miss_set(
    make_trace, cache_blocks, cold_share, bound, monkeypatch
):
    """A batch run on the generic loop counts its cold misses as the
    trace's distinct blocks, exactly, skips the ``CacheStats._seen``
    probe, and keeps its response samples as float64 chunks. A
    multi-block trace's blocks are counted from its rows, not from a
    per-block expansion.

    The bound is on the run's tracemalloc peak per access (block).
    Measured on LRU: the single-block cold-heavy trace 49.5 B an
    access, 200.3 while the loop kept ``_seen`` and the samples stayed
    boxed floats; the multi-block hit-heavy one 10.7 (11.6 with
    ``_seen``, 41.0 while the count expanded the trace). Each bound
    sits about halfway.
    """
    monkeypatch.setattr(columnar, "CHUNK_ROWS", 2048)
    trace = make_trace(4 * 2048 + 100)
    params = dict(num_disks=8, cache_blocks=cache_blocks)
    reference = run_simulation(trace.to_requests(), "lru", **params)
    build_session(trace[:100], "lru", **params).run_batch()
    session = build_session(trace, "lru", **params)
    simulator = session.simulator
    assert simulator._fused_loop_for() is None
    tracemalloc.start()
    try:
        result = session.run_batch()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.to_dict() == reference.to_dict()
    accesses = int(trace.nblocks.sum())
    low, high = cold_share
    assert low * accesses < result.cold_misses <= high * accesses
    assert not simulator.cache.stats._seen
    assert peak / accesses < bound


@pytest.mark.parametrize(
    "reference, write_policy, kept",
    [(False, "write-back", True), (False, "write-through", False),
     (True, "write-back", False)],
)
def test_opg_keeps_its_key_ids_for_the_fused_loop_only(
    reference, write_policy, kept
):
    """Only the fused OPG loop reads the per-access key ids: a run on
    the generic loop (OPG under write-through) or on the
    ``handle_request`` reference drops them once prepared."""
    trace = _cold_heavy_trace(500)
    params = dict(num_disks=8, cache_blocks=64, write_policy=write_policy)
    session = build_session(
        trace.to_requests() if reference else trace, "opg", **params
    )
    simulator = session.simulator
    simulator.prepare_offline()
    ids = simulator.policy._key_id_array
    assert (ids is not None) == kept
    if kept:
        assert ids.dtype == np.int32 and len(ids) == len(trace)


def test_a_session_keeps_its_cold_miss_set():
    """A fed session still probes ``_seen``: its batches arrive one at
    a time, so no trace-wide count exists."""
    trace = _cold_heavy_trace(500)
    params = dict(num_disks=8, cache_blocks=64)
    session = build_session(policy="lru", **params)
    requests = trace.to_requests()
    session.feed(requests[:250])
    session.feed(requests[250:])
    result = session.finalize()
    reference = run_simulation(requests, "lru", **params)
    assert result.to_dict() == reference.to_dict()
    assert len(session.simulator.cache.stats._seen) == result.cold_misses


def test_a_fused_opg_run_ends_with_a_bounded_heap():
    """The fused OPG loop rebuilds its lazy heap once it holds more
    than ``2 * resident + HEAP_SLACK`` entries, and keeps evicted
    blocks' stamps in a list, not the policy's ``_stamp`` dict. On
    this hit-heavy trace the heap would otherwise end holding one
    entry per hit."""
    trace = _hit_heavy_trace(20_000)
    params = dict(num_disks=8, cache_blocks=512)
    session = build_session(trace, "opg", **params)
    simulator = session.simulator
    assert simulator._fused_loop_for() is not None
    result = session.run_batch()
    assert result.evictions > 0
    policy = simulator.policy
    assert len(policy._heap) <= 2 * 512 + HEAP_SLACK
    assert not policy._stamp
    reference = run_simulation(trace.to_requests(), "opg", **params)
    assert result.to_dict() == reference.to_dict()


@pytest.mark.parametrize("name", ["opg", "belady"])
def test_a_scalar_offline_heap_is_bounded(name):
    """``OPGPolicy`` and ``BeladyPolicy`` on the ``handle_request``
    reference path rebuild their lazy heaps by the same rule, and the
    result stays the fast loops' own."""
    trace = _hit_heavy_trace(6000)
    params = dict(num_disks=8, cache_blocks=256)
    session = build_session(trace.to_requests(), name, **params)
    result = session.run_batch()
    policy = session.simulator.policy
    assert result.evictions > 0
    assert len(policy._heap) <= 2 * len(policy) + HEAP_SLACK
    assert len(policy) == 256
    assert result.to_dict() == run_simulation(trace, name, **params).to_dict()


def test_the_heap_bound_follows_the_resident_blocks(monkeypatch):
    """With no cache limit the heap's bound grows with the resident
    blocks, not with a capacity: a bound of ``2 * capacity + 64`` read
    as no capacity would rebuild on every push (thousands of rebuilds
    here) or never (a heap of one entry per access). Counted by the
    fused loop's ``heapify`` calls, one per rebuild."""
    rebuilds = []
    heapify = engine.heapify

    def counted(heap):
        rebuilds.append(len(heap))
        heapify(heap)

    monkeypatch.setattr(engine, "heapify", counted)
    trace = _hit_heavy_trace(8000)
    session = build_session(trace, "opg", num_disks=8, cache_blocks=None)
    simulator = session.simulator
    assert simulator._fused_loop_for() is not None
    result = session.run_batch()
    resident = len(simulator.cache)
    assert result.evictions == 0 and resident == result.cold_misses
    assert len(simulator.policy._heap) <= 2 * resident + HEAP_SLACK
    # every access pushes one entry, and a rebuild needs resident +
    # HEAP_SLACK stale ones since the last
    assert 0 < len(rebuilds) <= len(trace) // HEAP_SLACK
