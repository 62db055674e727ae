"""Fused engine loops vs the reference per-object path: differential runs.

The golden-configuration suite (``test_columnar_equivalence``) pins
three fixed workloads. This suite is the randomized complement for the
kernel-built fused loops (PA-LRU and OPG): every test generates a
seeded synthetic trace, runs it through both the reference
``list[IORequest]`` loop and the columnar fused loop, and compares the
fully serialized results byte for byte. It also pins the epoch-machinery
edge cases on hand-built traces: empty epochs, a single-request trace,
all-cold workloads, and an epoch boundary landing exactly on a request
timestamp. Multi-block traces run the fused loops over their per-block
access columns; their tests pin that too.

A handful of seeds run in the fast suite; a wider, longer sweep sits
behind ``-m slow``.
"""

import json

import numpy as np
import pytest

from repro.cache.write.write_back import WriteBackPolicy
from repro.sim.config import SimulationConfig
from repro.sim.engine import (
    StorageSimulator,
    _distinct_blocks,
    _distinct_keys,
)
from repro.sim.runner import build_policy, build_write_policy, run_simulation
from repro.traces.columnar import ColumnarTrace
from repro.traces.record import IORequest
from repro.traces.synthetic import (
    SyntheticTraceConfig,
    generate_synthetic_trace_columnar,
)
from repro.traces.zoo import CDNTraceConfig, generate_cdn_trace

FAST_SEEDS = (11, 12, 13, 14)
SLOW_SEEDS = tuple(range(100, 116))

POLICIES = {
    "pa-lru": {"policy": "pa-lru", "pa_epoch_s": 60.0},
    "pa-lru-wt": {
        "policy": "pa-lru", "pa_epoch_s": 60.0, "write_policy": "write-through"
    },
    "opg": {"policy": "opg", "theta": 0.0},
    "opg-theta": {"policy": "opg", "theta": 0.05},
}


def _serialized(
    trace, *, num_disks, cache_blocks=128, write_policy="write-back", **kwargs
):
    policy = kwargs.pop("policy")
    result = run_simulation(
        trace,
        policy,
        num_disks=num_disks,
        cache_blocks=cache_blocks,
        dpm="practical",
        write_policy=write_policy,
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


def test_block_ids_past_2_62_on_two_disks():
    # Fused as disk * (max_block + 1) + block, disk 4's block 0 and
    # disk 0's block 4 wrap to one int64 once a block id reaches 2**62;
    # both fused loops must still count every (disk, block) once. The
    # big blocks are only written back, from a cache that holds every
    # block, so none reaches a disk: the disks end far below them.
    big = 1 << 62
    keys = [(0, 4), (4, 0), (0, big), (4, big), (4, 0), (0, 4),
            (4, big), (0, 0), (4, 4), (0, big)]
    reqs = [
        IORequest(time=float(i), disk=disk, block=block, is_write=block >= big)
        for i, (disk, block) in enumerate(keys)
    ]
    _assert_handmade(
        reqs, num_disks=5, cache_blocks=16, pa_epoch_s=4.0,
        write_policy="write-back",
    )


def test_duplicate_timestamps_across_disks():
    # Coincident accesses everywhere: zero-length intervals in the
    # histograms and coincident timeline hits in OPG's penalty path.
    reqs = []
    for i in range(40):
        t = float(i // 4)  # four requests share each timestamp
        reqs.append(IORequest(time=t, disk=i % 2, block=i % 8))
    _assert_handmade(reqs, num_disks=2, cache_blocks=4, pa_epoch_s=2.0)


# -- multi-block requests on the fused loops -------------------------------


def _cdn(seed, num_disks):
    trace = generate_cdn_trace(
        CDNTraceConfig(
            duration_s=4.0, num_disks=num_disks, write_ratio=0.3, seed=seed
        )
    )
    assert int(trace.nblocks.max()) > 1
    return trace


def test_fused_loops_run_multiblock_traces(monkeypatch):
    """PA-LRU and OPG keep their fused loops on a multi-block trace."""

    def generic_loop(*args, **kwargs):
        raise AssertionError("the generic loop ran")

    monkeypatch.setattr(StorageSimulator, "_run_columnar_fast", generic_loop)
    trace = _cdn(21, num_disks=3)
    for kwargs in POLICIES.values():
        _serialized(trace, num_disks=3, **kwargs)


def test_an_opg_run_expands_its_trace_once(monkeypatch):
    """Offline prepare and the fused OPG loop share one expansion."""
    expansions = []
    block_accesses = ColumnarTrace.block_accesses

    def counted(self):
        expanded = block_accesses(self)
        expansions.append(expanded[1] is not None)
        return expanded

    monkeypatch.setattr(ColumnarTrace, "block_accesses", counted)
    _serialized(_cdn(21, num_disks=3), num_disks=3, **POLICIES["opg"])
    assert expansions.count(True) == 1


class _WriteBackSubclass(WriteBackPolicy):
    """Overrides nothing, yet could: no fused loop may run."""


WRITE_POLICIES = [
    "write-back", "write-through", "wbeu", "periodic-flush", "wtdu", "sub"
]


def _simulator(policy, write_policy="write-back"):
    config = SimulationConfig(num_disks=3, cache_capacity_blocks=64)
    return StorageSimulator(
        _cdn(21, num_disks=3),
        config,
        build_policy(policy, config),
        _WriteBackSubclass()
        if write_policy == "sub"
        else build_write_policy(write_policy, num_disks=3),
    )


@pytest.mark.parametrize("write_policy", WRITE_POLICIES)
def test_the_fused_opg_loop_runs_under_write_back_only(write_policy):
    simulator = _simulator("opg", write_policy)
    loop = simulator._fused_loop_for()
    if write_policy == "write-back":
        assert loop == simulator._run_columnar_fast_opg
    else:
        assert loop is None


@pytest.mark.parametrize("write_policy", WRITE_POLICIES)
def test_the_fused_pa_loop_runs_under_write_back_and_write_through(
    write_policy,
):
    simulator = _simulator("pa-lru", write_policy)
    loop = simulator._fused_loop_for()
    if write_policy in ("write-back", "write-through"):
        assert loop == simulator._run_columnar_fast_pa
    else:
        assert loop is None


@pytest.mark.parametrize(
    "blocks",
    [
        [7, 3, 7, 10_000, 3, 0],
        [-5, 3, -5, 7, 3, -5],  # offset by the minimum, not by zero
        [0, 1 << 62, 1, 1 << 62, 0, 5],  # past int64: compared as rows
    ],
)
def test_distinct_keys_counts_every_key_once(blocks):
    disks = np.array([0, 0, 1, 1, 0, 2])
    blocks = np.array(blocks, dtype=np.int64)
    expected = len(set(zip(disks.tolist(), blocks.tolist())))
    assert _distinct_keys(disks, blocks) == expected
    assert _distinct_keys(disks[:0], blocks[:0]) == 0


@pytest.mark.parametrize("seed", range(4))
def test_distinct_blocks_counts_a_multiblock_trace_from_its_rows(seed):
    rng = np.random.default_rng(seed)
    n = 400
    trace = ColumnarTrace(
        np.arange(n, dtype=np.float64),
        rng.integers(0, 5, n),
        rng.integers(0, 60, n) * (1 << (20 * seed)),
        rng.integers(1, 12, n),
        np.zeros(n, dtype=bool),
    )
    accesses, _ = trace.block_accesses()
    expected = len(set(zip(accesses.disks.tolist(), accesses.blocks.tolist())))
    assert _distinct_blocks(trace) == expected
    assert _distinct_blocks(trace[:1]) == int(trace.nblocks[0])


@pytest.mark.parametrize("policy", ["pa-lru", "opg"])
def test_no_fused_loop_once_the_cache_has_seen_a_block(policy):
    """The fused loops count cold misses as the trace's distinct
    blocks, which is exact only from a cache that has seen none."""
    simulator = _simulator(policy)
    assert simulator._fused_loop_for() is not None
    simulator.cache.stats._seen.add((0, 1))
    assert simulator._fused_loop_for() is None


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("seed, num_disks", [(21, 3), (22, 7)])
def test_multiblock_trace_differential(policy, seed, num_disks):
    trace = _cdn(seed, num_disks)
    kwargs = {**POLICIES[policy], "pa_epoch_s": 1.0, "cache_blocks": 64}
    assert _serialized(
        trace.to_requests(), num_disks=num_disks, **kwargs
    ) == _serialized(trace, num_disks=num_disks, **kwargs)


def test_write_longer_than_the_cache_evicts_its_own_blocks():
    # A 10-block write into a 4-block cache: its later blocks evict its
    # earlier, already-dirty ones, which write back at the same instant.
    reqs = [
        IORequest(time=0.0, disk=0, block=100, nblocks=2),
        IORequest(time=1.0, disk=0, block=0, nblocks=10, is_write=True),
        IORequest(time=2.0, disk=1, block=7, nblocks=3),
        IORequest(time=3.0, disk=0, block=4, nblocks=8),
        IORequest(time=4.0, disk=0, block=100),
    ]
    _assert_handmade(reqs, num_disks=2, cache_blocks=4, pa_epoch_s=2.0)


def test_multiblock_request_over_resident_blocks():
    # The 4-block read finds its middle blocks resident (hits between
    # misses); the write then covers resident and absent blocks alike.
    reqs = [
        IORequest(time=0.0, disk=0, block=5),
        IORequest(time=0.5, disk=0, block=6, is_write=True),
        IORequest(time=1.0, disk=0, block=4, nblocks=4),
        IORequest(time=2.0, disk=1, block=9),
        IORequest(time=3.0, disk=0, block=3, nblocks=6, is_write=True),
        IORequest(time=9.0, disk=0, block=5, nblocks=2),
    ]
    _assert_handmade(reqs, num_disks=2, cache_blocks=6, pa_epoch_s=2.0)


def test_epoch_boundary_at_a_multiblock_request():
    # t = 30 and t = 60 are epoch boundaries: the classifier rolls
    # before the first block of the request at that instant and not
    # again for its later blocks.
    reqs = [
        IORequest(time=0.0, disk=0, block=1, nblocks=3),
        IORequest(time=15.0, disk=1, block=2),
        IORequest(time=30.0, disk=0, block=1, nblocks=4),
        IORequest(time=30.0, disk=1, block=3, nblocks=2, is_write=True),
        IORequest(time=60.0, disk=1, block=2, nblocks=5),
        IORequest(time=61.0, disk=0, block=2, nblocks=2),
    ]
    _assert_handmade(reqs, num_disks=2, pa_epoch_s=30.0, cache_blocks=5)
