"""OLTP-like workload: the synthetic stand-in for the paper's TPC-C
trace (see DESIGN.md, "Substitutions").

Table 2 publishes the trace's externals — 21 disks, 22% writes, 99 ms
mean inter-arrival, 2 hours — and Section 5.3's analysis reveals the
internals that make PA-LRU win: traffic is heavily skewed across disks.

* A band of *hot* disks (data/index) sees steady exponential traffic
  over a large, weakly-reused footprint: their idle gaps sit far below
  the shallowest break-even time, so they can never park — and their
  miss flood continuously churns the cache (the paper's disk 4).
* A band of *cool* disks sees sparse, bursty traffic over a small
  working set. The working set is re-referenced on a period *longer
  than the cache's eviction age* under plain LRU, so LRU keeps waking
  these disks every couple of break-even times — the worst possible
  regime: deep descents paid for, then immediately unwound. Classified
  priority, the small working sets stay resident, misses collapse to
  roughly the cold set, and the disks sleep through whole epochs (the
  paper's disk 14: LRU mean inter-arrival ~13 s vs PA-LRU ~40 s).

Cool-disk gaps are Pareto with shape 1.8: the distribution's minimum
(``mean * (shape-1)/shape`` ≈ 44% of the mean) keeps every gap above
the shallow thresholds while the heavy tail supplies the long idle
periods — the "larger deviation" Section 4 says creates opportunity.

All knobs are plain config fields so sensitivity studies can move them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import ConfigurationError
from repro.traces.arrivals import ExponentialArrivals, ParetoArrivals
from repro.traces.columnar import ColumnarTrace
from repro.traces.locality import ZipfPopularity
from repro.traces.streaming import TraceRow, build_columnar
from repro.units import DEFAULT_BLOCK_SIZE, GIB, HOUR


@dataclass(frozen=True)
class OLTPTraceConfig:
    """Knobs for the OLTP-like generator (defaults match Table 2)."""

    duration_s: float = 2 * HOUR
    num_disks: int = 21
    num_hot_disks: int = 11
    write_ratio: float = 0.22
    mean_interarrival_s: float = 0.099
    #: Per-cool-disk request rate (requests/second). Low by design:
    #: cool working sets are re-referenced slowly.
    cool_disk_rate_hz: float = 0.08
    #: Hot disks: large, weakly reused footprint (capacity misses).
    hot_footprint_blocks: int = 60_000
    hot_zipf_a: float = 1.15
    #: Cool disks: small, uniformly reused working set.
    cool_footprint_blocks: int = 60
    cool_zipf_a: float = 1.0  # <= 1 means uniform
    cool_pareto_shape: float = 1.8
    disk_size_bytes: int = 18 * GIB
    block_size: int = DEFAULT_BLOCK_SIZE
    seed: int = 7

    def __post_init__(self) -> None:
        if not 0 < self.num_hot_disks < self.num_disks:
            raise ConfigurationError(
                "need 0 < num_hot_disks < num_disks (both bands populated)"
            )
        if self.hot_disk_rate <= 0:
            raise ConfigurationError(
                "cool disks consume the whole request budget; lower "
                "cool_disk_rate_hz or mean_interarrival_s"
            )

    @property
    def num_cool_disks(self) -> int:
        return self.num_disks - self.num_hot_disks

    @property
    def total_rate(self) -> float:
        return 1.0 / self.mean_interarrival_s

    @property
    def hot_disk_rate(self) -> float:
        cool_total = self.cool_disk_rate_hz * self.num_cool_disks
        return (self.total_rate - cool_total) / self.num_hot_disks


def iter_oltp_rows(
    config: OLTPTraceConfig = OLTPTraceConfig(),
) -> Iterator[TraceRow]:
    """The OLTP generation loop as a streaming row source (DESIGN §14).

    Each disk runs an independent arrival process (exponential for hot
    disks, Pareto for cool — bursty traffic with a floor on gap length
    is what gives cool disks parkable idle periods); the per-disk
    streams are merged by time. Draw order is part of the trace's
    identity: tests pin the generated trace's fingerprint per seed.
    """
    rng = np.random.default_rng(config.seed)
    disk_blocks = config.disk_size_bytes // config.block_size

    processes = []
    pickers = []
    for disk in range(config.num_disks):
        hot = disk < config.num_hot_disks
        if hot:
            processes.append(
                ExponentialArrivals(1.0 / config.hot_disk_rate, rng)
            )
            footprint = min(config.hot_footprint_blocks, disk_blocks)
            zipf_a = config.hot_zipf_a
        else:
            processes.append(
                ParetoArrivals(
                    1.0 / config.cool_disk_rate_hz,
                    rng,
                    shape=config.cool_pareto_shape,
                )
            )
            footprint = min(config.cool_footprint_blocks, disk_blocks)
            zipf_a = config.cool_zipf_a
        pickers.append(
            ZipfPopularity(
                footprint=footprint,
                rng=rng,
                zipf_a=zipf_a,
                base_block=(disk * 131_071) % max(1, disk_blocks - footprint),
            )
        )

    # merge the per-disk arrival streams chronologically
    heap: list[tuple[float, int]] = []
    for disk, process in enumerate(processes):
        heapq.heappush(heap, (process.next_gap(), disk))
    while heap:
        time, disk = heapq.heappop(heap)
        if time > config.duration_s:
            continue  # this disk's stream is exhausted
        yield (
            time,
            disk,
            pickers[disk].next_block(),
            1,
            bool(rng.random() < config.write_ratio),
        )
        heapq.heappush(heap, (time + processes[disk].next_gap(), disk))


def generate_oltp_trace_columnar(
    config: OLTPTraceConfig = OLTPTraceConfig(),
) -> ColumnarTrace:
    """Generate the OLTP-like trace (deterministic given ``config.seed``),
    streamed straight into columns."""
    return build_columnar(iter_oltp_rows(config))
