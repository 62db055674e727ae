"""Tests for the periodic-flush write policy."""

import pytest

from repro.cache.cache import StorageCache
from repro.cache.policies.lru import LRUPolicy
from repro.cache.write.periodic import PeriodicFlushPolicy
from repro.disk.array import DiskArray
from repro.errors import ConfigurationError
from repro.power.dpm import PracticalDPM
from repro.power.specs import ULTRASTAR_36Z15
from repro.sim.runner import run_simulation
from repro.traces.synthetic import (
    SyntheticTraceConfig,
    generate_synthetic_trace_columnar,
)


def rig(interval=10.0, capacity=16):
    policy = PeriodicFlushPolicy(flush_interval_s=interval)
    cache = StorageCache(capacity, LRUPolicy())
    array = DiskArray(2, ULTRASTAR_36Z15, lambda m: PracticalDPM(m))
    policy.attach(cache, array)
    return policy, cache, array


def write(cache, policy, key, time):
    outcome = cache.access(key, time, is_write=True)
    for victim, state in outcome.evicted:
        policy.on_evicted(victim, state, time)
    return policy.on_write(key, time)


class TestPeriodicFlushPolicy:
    def test_writes_are_cache_speed(self):
        policy, cache, _ = rig()
        assert write(cache, policy, (0, 1), 0.0) == 0.0
        assert cache.state((0, 1)).dirty

    def test_flush_fires_after_interval(self):
        policy, cache, array = rig(interval=10.0)
        write(cache, policy, (0, 1), 0.0)
        write(cache, policy, (0, 2), 1.0)
        assert policy.pending_dirty() == 2
        write(cache, policy, (1, 9), 11.0)  # crosses the deadline
        # the sweep persisted the two earlier blocks; the new one is
        # dirty again until the next sweep
        assert policy.flush_sweeps == 1
        assert array[0].request_count == 2
        assert policy.pending_dirty() == 1

    def test_no_flush_before_interval(self):
        policy, cache, array = rig(interval=100.0)
        for t in range(5):
            write(cache, policy, (0, t), float(t))
        assert policy.flush_sweeps == 0
        assert array[0].request_count == 0

    def test_read_activity_also_advances_clock(self):
        policy, cache, _ = rig(interval=10.0)
        write(cache, policy, (0, 1), 0.0)
        policy.after_read_wake(1, 15.0, woke=False)
        assert policy.flush_sweeps == 1
        assert policy.pending_dirty() == 0

    def test_quiet_period_single_catchup(self):
        policy, cache, _ = rig(interval=10.0)
        write(cache, policy, (0, 1), 0.0)
        write(cache, policy, (0, 2), 500.0)  # 50 intervals later
        assert policy.flush_sweeps == 1  # one catch-up, not fifty

    def test_dirty_eviction_still_persists(self):
        policy, cache, array = rig(interval=1000.0, capacity=1)
        write(cache, policy, (0, 1), 0.0)
        write(cache, policy, (0, 2), 1.0)  # evicts dirty (0,1)
        assert array[0].request_count == 1

    def test_invalid_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            PeriodicFlushPolicy(flush_interval_s=0.0)

    def test_bounded_exposure_between_wb_and_wt(self):
        """Energy and pending-dirty land between WB and WT."""
        trace = generate_synthetic_trace_columnar(
            SyntheticTraceConfig(
                num_requests=6000, write_ratio=0.6, seed=37
            )
        ).to_requests()
        results = {
            name: run_simulation(
                trace, "lru", num_disks=20, cache_blocks=512,
                write_policy=name, flush_interval_s=30.0,
            )
            for name in ("write-through", "periodic-flush", "write-back")
        }
        wt, pf, wb = (
            results["write-through"],
            results["periodic-flush"],
            results["write-back"],
        )
        # write counts: WT >= periodic >= WB
        assert wt.disk_writes >= pf.disk_writes >= wb.disk_writes
        # exposure: WT has none; periodic bounds it; WB unbounded
        assert wt.pending_dirty == 0
        assert pf.pending_dirty <= wb.pending_dirty
