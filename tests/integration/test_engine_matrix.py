"""Engine consistency across the full (policy x write-policy x DPM)
configuration matrix, on a small workload.

Each combination must run to completion and satisfy the bookkeeping
identities that hold regardless of configuration.
"""

import pytest

from repro.sim.runner import (
    POLICY_NAMES,
    WRITE_POLICY_NAMES,
    run_simulation,
)
from repro.traces.synthetic import (
    SyntheticTraceConfig,
    generate_synthetic_trace_columnar,
)


@pytest.fixture(scope="module")
def trace():
    return generate_synthetic_trace_columnar(
        SyntheticTraceConfig(
            num_requests=1200, num_disks=4, write_ratio=0.4, seed=23
        )
    ).to_requests()


def check_identities(result):
    assert result.cache_accesses == result.cache_hits + result.cache_misses
    assert result.cold_misses <= result.cache_misses
    assert result.total_energy_j > 0
    assert result.response.count == 1200
    assert result.response.mean_s > 0
    # every read miss produced exactly one disk read
    read_misses = result.disk_reads
    assert read_misses <= result.cache_misses


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_every_policy_with_every_dpm(trace, policy):
    for dpm in ("practical", "oracle", "always_on", "adaptive"):
        result = run_simulation(
            trace,
            policy,
            num_disks=4,
            cache_blocks=256,
            dpm=dpm,
            pa_epoch_s=60.0,
        )
        check_identities(result)


@pytest.mark.parametrize("write_policy", WRITE_POLICY_NAMES)
def test_every_write_policy_with_every_dpm(trace, write_policy):
    for dpm in ("practical", "oracle", "always_on", "adaptive"):
        result = run_simulation(
            trace,
            "lru",
            num_disks=4,
            cache_blocks=256,
            dpm=dpm,
            write_policy=write_policy,
        )
        check_identities(result)
        if write_policy == "write-through":
            assert result.pending_dirty == 0


@pytest.mark.parametrize("write_policy", WRITE_POLICY_NAMES)
def test_write_policies_agree_on_read_side(trace, write_policy):
    """Write policies must not change which accesses hit: the address
    stream and replacement decisions are write-policy-independent for
    LRU (writes allocate identically under all four)."""
    reference = run_simulation(
        trace, "lru", num_disks=4, cache_blocks=256,
        write_policy="write-back",
    )
    result = run_simulation(
        trace, "lru", num_disks=4, cache_blocks=256,
        write_policy=write_policy,
    )
    assert result.cache_hits == reference.cache_hits
    assert result.cache_misses == reference.cache_misses


def test_prefetching_composes_with_write_policies(trace):
    for write_policy in WRITE_POLICY_NAMES:
        result = run_simulation(
            trace,
            "lru",
            num_disks=4,
            cache_blocks=256,
            write_policy=write_policy,
            prefetch_depth=4,
        )
        check_identities(result)
