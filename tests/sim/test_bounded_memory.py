"""Memory a fast run holds: one chunk of boxed rows, not the trace.

The fused PA-LRU loop used to box all four access columns and its
whole Bloom cold mask and epoch-roll plan into Python lists before the
first access, about 100 bytes an access on top of the columns. It now
boxes one ``CHUNK_ROWS`` chunk at a time, so on a trace of several
chunks the boxed rows are a fraction of the peak. Neither fused loop
keeps the exact cold-miss set either: both count their cold misses
from the trace.
"""

import tracemalloc

import numpy as np
import pytest

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


@pytest.mark.parametrize("policy, bound", [("pa-lru", 110), ("opg", 250)])
def test_a_fused_run_holds_no_cold_miss_set(policy, bound, monkeypatch):
    """A fused run counts its cold misses as the trace's distinct
    blocks, exactly, and ends holding neither ``CacheStats._seen`` nor
    PA's ``_home`` map.

    The bound is on what the run still holds when it ends, per access:
    on a trace this small the Bloom kernel's fixed working set sets
    PA-LRU's peak. Measured: PA-LRU 40.7 B an access, 179.4 while the
    loop kept ``_seen`` and ``_home``; OPG 192.5, 309.3 with ``_seen``.
    Each bound sits about halfway, some 60-70 B from either side.
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
    """Prepare keeps the one per-access kernel array its policy reads,
    and the expansion's all-ones ``nblocks`` column takes no memory."""
    trace = generate_cdn_trace(CDNTraceConfig(duration_s=4.0, num_disks=3))
    policy = build_policy(name, SimulationConfig(3, 64))
    accesses, starts = policy.prepare_columnar(trace)
    assert starts is not None  # a multi-block trace, expanded
    assert accesses.nblocks.strides == (0,)
    assert (accesses.nblocks == 1).all()
    arrays = {k for k, v in vars(policy).items() if isinstance(v, np.ndarray)}
    assert arrays == {kept}
    # the lazy key list's columns are the expansion's own
    disks, blocks = policy._lazy_cols
    assert disks is accesses.disks and blocks is accesses.blocks
