"""Fused engine loops vs the reference per-object path: differential runs.

The golden-configuration suite (``test_columnar_equivalence``) pins
three fixed workloads. This suite is the randomized complement for the
kernel-built fused loops (PA-LRU and OPG): every test generates a
seeded synthetic trace, runs it through both the reference
``list[IORequest]`` loop and the columnar fused loop, and compares the
fully serialized results byte for byte. It also pins the epoch-machinery
edge cases on hand-built traces: empty epochs, a single-request trace,
all-cold workloads, and an epoch boundary landing exactly on a request
timestamp.

A handful of seeds run in the fast suite; a wider, longer sweep sits
behind ``-m slow``.
"""

import json

import pytest

from repro.sim.runner import run_simulation
from repro.traces.columnar import ColumnarTrace
from repro.traces.record import IORequest
from repro.traces.synthetic import (
    SyntheticTraceConfig,
    generate_synthetic_trace_columnar,
)

FAST_SEEDS = (11, 12, 13, 14)
SLOW_SEEDS = tuple(range(100, 116))

POLICIES = {
    "pa-lru": {"policy": "pa-lru", "pa_epoch_s": 60.0},
    "opg": {"policy": "opg", "theta": 0.0},
    "opg-theta": {"policy": "opg", "theta": 0.05},
}


def _serialized(trace, *, num_disks, cache_blocks=128, **kwargs):
    policy = kwargs.pop("policy")
    result = run_simulation(
        trace,
        policy,
        num_disks=num_disks,
        cache_blocks=cache_blocks,
        dpm="practical",
        write_policy="write-back",
        **kwargs,
    )
    return json.dumps(result.to_dict(), sort_keys=True)


def _assert_differential(cfg: SyntheticTraceConfig, **kwargs) -> None:
    reference = generate_synthetic_trace_columnar(cfg).to_requests()
    columnar = generate_synthetic_trace_columnar(cfg)
    assert _serialized(
        reference, num_disks=cfg.num_disks, **kwargs
    ) == _serialized(columnar, num_disks=cfg.num_disks, **kwargs)


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_random_trace_differential(policy, seed):
    cfg = SyntheticTraceConfig(
        num_requests=2500,
        num_disks=3 + (seed % 3) * 7,  # 3, 10, 17 disks across seeds
        seed=seed,
        write_ratio=0.1 * (seed % 4),
        mean_interarrival_s=(0.05, 0.25, 2.0, 20.0)[seed % 4],
    )
    _assert_differential(cfg, **POLICIES[policy])


@pytest.mark.slow
@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_random_trace_differential_slow(policy, seed):
    cfg = SyntheticTraceConfig(
        num_requests=20_000,
        num_disks=2 + seed % 19,
        seed=seed,
        write_ratio=0.05 * (seed % 5),
        arrival_process="pareto" if seed % 2 else "exponential",
    )
    _assert_differential(cfg, **POLICIES[policy])


# -- epoch-machinery edge cases (hand-built traces) -----------------------


def _both(requests):
    reference = list(requests)
    return reference, ColumnarTrace.from_requests(reference)


def _assert_handmade(requests, num_disks, **kwargs):
    reference, columnar = _both(requests)
    for name, pol_kwargs in sorted(POLICIES.items()):
        merged = {**pol_kwargs, **kwargs}
        assert _serialized(
            reference, num_disks=num_disks, **merged
        ) == _serialized(columnar, num_disks=num_disks, **merged), name


def test_single_request_trace():
    _assert_handmade([IORequest(time=1.0, disk=0, block=5)], num_disks=1)


def test_empty_epochs_between_accesses():
    # A silence crossing many epoch boundaries: every intermediate
    # epoch is empty, and the classifier must roll through all of them
    # at the next observation in both paths.
    reqs = [
        IORequest(time=0.0, disk=0, block=1),
        IORequest(time=5.0, disk=1, block=2, is_write=True),
        IORequest(time=5000.0, disk=0, block=1),
        IORequest(time=5001.0, disk=1, block=2),
    ]
    _assert_handmade(reqs, num_disks=2, pa_epoch_s=60.0)


def test_all_disks_cold():
    # Every access touches a fresh block: all misses are cold, every
    # disk's cold fraction is 1.0, and OPG sees only inf next-times.
    reqs = [
        IORequest(time=float(i), disk=i % 4, block=1000 + i)
        for i in range(64)
    ]
    _assert_handmade(reqs, num_disks=4, cache_blocks=16)


def test_epoch_boundary_exactly_on_request_timestamp():
    # With epoch length 30 and t0 = 0, requests at t = 30, 60 land
    # exactly on boundaries — the scalar roll condition is >=, and the
    # fused epoch table must tie-break identically.
    reqs = [
        IORequest(time=0.0, disk=0, block=1),
        IORequest(time=15.0, disk=1, block=2),
        IORequest(time=30.0, disk=0, block=1),
        IORequest(time=30.0, disk=1, block=3, is_write=True),
        IORequest(time=60.0, disk=0, block=1),
        IORequest(time=61.0, disk=1, block=2),
    ]
    _assert_handmade(reqs, num_disks=2, pa_epoch_s=30.0, cache_blocks=4)


def test_duplicate_timestamps_across_disks():
    # Coincident accesses everywhere: zero-length intervals in the
    # histograms and coincident timeline hits in OPG's penalty path.
    reqs = []
    for i in range(40):
        t = float(i // 4)  # four requests share each timestamp
        reqs.append(IORequest(time=t, disk=i % 2, block=i % 8))
    _assert_handmade(reqs, num_disks=2, cache_blocks=4, pa_epoch_s=2.0)
