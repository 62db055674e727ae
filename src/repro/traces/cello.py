"""Cello96-like workload: synthetic stand-in for HP's file-server trace.

Table 2 and Section 5.2 pin down what matters: 19 disks, 38% writes,
5.61 ms mean inter-arrival, and — crucially — about 64% of accesses are
cold misses, with inter-arrival gaps so short that even the cold-miss
stream leaves little parkable idle time. This is the regime where the
paper reports PA-LRU gains only 2–3% over LRU and an infinite cache
only ~12%: the workload offers almost no leverage.

The generator realizes that regime directly:

* most accesses walk fresh addresses in sequential runs (file-server
  scans), the remainder reuse a modest working set — so roughly the
  published cold-miss fraction emerges at the cache;
* traffic is spread over all 19 disks with a geometric rate skew and
  bursty (Pareto) per-disk arrivals, so the quietest disks' *cold-miss*
  streams straddle the shallow break-even times: an infinite cache can
  harvest modest savings there, a finite cache cannot do much better
  than LRU, and PA-LRU classifies every disk regular (cold fraction
  ≈ 64% exceeds any sensible ``alpha``), collapsing onto LRU — exactly
  the paper's result.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import ConfigurationError
from repro.traces.arrivals import ParetoArrivals
from repro.traces.columnar import ColumnarTrace
from repro.traces.locality import ZipfStackModel
from repro.traces.streaming import TraceRow, build_columnar
from repro.units import DEFAULT_BLOCK_SIZE, GIB


@dataclass(frozen=True)
class CelloTraceConfig:
    """Knobs for the Cello96-like generator (defaults match Table 2)."""

    duration_s: float = 1800.0
    num_disks: int = 19
    write_ratio: float = 0.38
    mean_interarrival_s: float = 0.00561
    #: Fraction of accesses that reuse a previously-touched block;
    #: 1 - this is (approximately) the cold-miss fraction.
    reuse_probability: float = 0.36
    zipf_a: float = 1.3
    stack_depth: int = 1 << 15
    #: Sequential-scan run length for fresh addresses.
    scan_run_blocks: int = 16
    #: Per-disk rate skew: disk i gets weight ``rate_skew ** i``.
    rate_skew: float = 0.7
    pareto_shape: float = 1.4
    disk_size_bytes: int = 18 * GIB
    block_size: int = DEFAULT_BLOCK_SIZE
    seed: int = 11

    def __post_init__(self) -> None:
        if not 0.0 <= self.reuse_probability <= 1.0:
            raise ConfigurationError("reuse_probability must be in [0, 1]")
        if self.scan_run_blocks < 1:
            raise ConfigurationError("scan_run_blocks must be >= 1")
        if not 0.0 < self.rate_skew <= 1.0:
            raise ConfigurationError("rate_skew must be in (0, 1]")

    def disk_rates(self) -> list[float]:
        """Per-disk request rates (Hz), geometrically skewed."""
        weights = [self.rate_skew**i for i in range(self.num_disks)]
        total = sum(weights)
        overall = 1.0 / self.mean_interarrival_s
        return [overall * w / total for w in weights]


def iter_cello_rows(
    config: CelloTraceConfig = CelloTraceConfig(),
) -> Iterator[TraceRow]:
    """The Cello96 generation loop as a streaming row source (DESIGN §14).

    Draw order is part of the trace's identity: tests pin the generated
    trace's fingerprint per seed.
    """
    rng = np.random.default_rng(config.seed)
    disk_blocks = config.disk_size_bytes // config.block_size
    # one reuse stack per disk: traffic is per-disk, blocks don't migrate
    stacks = [
        ZipfStackModel(
            rng=rng,
            reuse_probability=config.reuse_probability,
            zipf_a=config.zipf_a,
            max_depth=config.stack_depth,
        )
        for _ in range(config.num_disks)
    ]
    processes = [
        ParetoArrivals(1.0 / rate, rng, shape=config.pareto_shape)
        for rate in config.disk_rates()
    ]
    # per-disk scan cursors: fresh addresses advance sequentially
    cursors = [int(rng.integers(disk_blocks)) for _ in range(config.num_disks)]
    remaining_run = [0] * config.num_disks
    heap: list[tuple[float, int]] = []
    for disk, process in enumerate(processes):
        heapq.heappush(heap, (process.next_gap(), disk))

    while heap:
        time, disk = heapq.heappop(heap)
        if time > config.duration_s:
            continue
        key = stacks[disk].next_key()
        if key is None:
            # fresh address: continue (or restart) this disk's scan run
            if remaining_run[disk] <= 0:
                cursors[disk] = int(rng.integers(disk_blocks))
                remaining_run[disk] = config.scan_run_blocks
            block = cursors[disk]
            cursors[disk] = (cursors[disk] + 1) % disk_blocks
            remaining_run[disk] -= 1
            key = (disk, block)
            stacks[disk].push(key)
        yield (time, disk, key[1], 1, bool(rng.random() < config.write_ratio))
        heapq.heappush(heap, (time + processes[disk].next_gap(), disk))


def generate_cello_trace_columnar(
    config: CelloTraceConfig = CelloTraceConfig(),
) -> ColumnarTrace:
    """Generate the Cello96-like trace (deterministic given the seed),
    streamed straight into columns."""
    return build_columnar(iter_cello_rows(config))
