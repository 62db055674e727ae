"""The workload zoo: streaming trace families beyond the paper's two.

The paper evaluates PA-LRU/OPG on exactly two workloads (OLTP and
Cello96). These three families widen the slice, each modelled after a
published workload shape and each realized as a *streaming* generator:
the loop yields ``(time, disk, block, nblocks, is_write)`` rows that
:mod:`repro.traces.streaming` appends into column chunks, so the peak
memory is the finished columns — never a boxed request list.

* :func:`generate_dbms_trace` — query-driven DBMS storage traffic with
  per-query think times and table-scan bursts, after the energy-aware
  DBMS storage work (Behzadnia et al., arXiv:1703.02591): closed-loop
  clients issue point lookups against Zipf-hot rows and occasional
  sequential scans over table extents.
* :func:`generate_cdn_trace` — a CDN-style object workload with Zipf
  popularity that *drifts over time*, after the Zipf eviction-energy
  analysis (Sziklay & Jursonovics, arXiv:2503.02504): temporal reuse
  rides the Fenwick-indexed :class:`~repro.traces.locality.ZipfStackModel`
  while the fresh-object window slides across the catalog, so the hot
  set a policy learned one popularity epoch ago decays the next.
* :func:`generate_tenant_trace` — diurnal multi-tenant load: each
  tenant owns a disk band and a Zipf working set, and its request rate
  follows a phase-shifted sinusoid, so at any instant some tenants are
  near peak while others idle — the regime where per-disk
  classification has the most to harvest.

All generators are deterministic given their config's ``seed`` and are
registered in :data:`ZOO_WORKLOADS`, which :data:`repro.traces.WORKLOADS`
extends for the CLI and campaign specs.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import ConfigurationError
from repro.traces.columnar import ColumnarTrace
from repro.traces.locality import ZipfPopularity, ZipfStackModel
from repro.traces.streaming import TraceRow, build_columnar

#: Knuth's multiplicative hash constant — gives each CDN object a
#: deterministic pseudo-random size without consuming an RNG draw.
_OBJECT_HASH = 2654435761


# --------------------------------------------------------------------------
# (a) DBMS query-driven workload (arXiv:1703.02591)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DBMSTraceConfig:
    """Knobs for the query-driven DBMS generator.

    ``num_clients`` closed-loop sessions alternate think time and query
    execution. A query is either a *point lookup* (``lookup_blocks``
    accesses against the table's Zipf-hot rows, the last one an update
    with probability ``update_fraction``) or a *table scan*
    (``scan_blocks`` sequential reads from a random extent). One table
    lives on each disk, so scans are the per-disk burst traffic and
    lookups the skewed steady state.
    """

    duration_s: float = 600.0
    num_disks: int = 8
    num_clients: int = 16
    mean_think_s: float = 0.4
    scan_fraction: float = 0.08
    scan_blocks: int = 192
    lookup_blocks: int = 4
    intra_query_gap_s: float = 0.0008
    update_fraction: float = 0.25
    table_blocks: int = 24_000
    table_zipf_a: float = 1.2
    seed: int = 1703

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ConfigurationError("duration_s must be > 0")
        if self.num_disks < 1 or self.num_clients < 1:
            raise ConfigurationError("need >= 1 disk and >= 1 client")
        if not 0.0 <= self.scan_fraction <= 1.0:
            raise ConfigurationError("scan_fraction must be in [0, 1]")
        if not 0.0 <= self.update_fraction <= 1.0:
            raise ConfigurationError("update_fraction must be in [0, 1]")
        if self.lookup_blocks < 1 or self.scan_blocks < 1:
            raise ConfigurationError("query sizes must be >= 1 block")
        if self.mean_think_s <= 0 or self.intra_query_gap_s <= 0:
            raise ConfigurationError("think/gap times must be > 0")
        if self.table_blocks < self.scan_blocks:
            raise ConfigurationError("table_blocks must cover one scan")


def iter_dbms_rows(
    config: DBMSTraceConfig = DBMSTraceConfig(),
) -> Iterator[TraceRow]:
    """Stream the DBMS workload rows in global time order.

    Each client is one entry on an event heap carrying its next access
    time; popping emits a single access and schedules either the
    query's next access (``intra_query_gap_s`` later) or — when the
    query finishes — the next query after an exponential think time.
    """
    rng = np.random.default_rng(config.seed)
    hot_rows = [
        ZipfPopularity(
            footprint=config.table_blocks,
            rng=rng,
            zipf_a=config.table_zipf_a,
        )
        for _ in range(config.num_disks)
    ]
    # per-client query state: remaining accesses, table, scan cursor
    remaining = [0] * config.num_clients
    table = [0] * config.num_clients
    scan_cursor = [-1] * config.num_clients  # -1 = point lookup query
    heap: list[tuple[float, int]] = []
    for client in range(config.num_clients):
        heapq.heappush(
            heap, (float(rng.exponential(config.mean_think_s)), client)
        )
    while heap:
        time, client = heapq.heappop(heap)
        if time > config.duration_s:
            continue  # this client's session is over
        if remaining[client] == 0:
            # plan a new query at its first access
            table[client] = int(rng.integers(config.num_disks))
            if rng.random() < config.scan_fraction:
                remaining[client] = config.scan_blocks
                scan_cursor[client] = int(
                    rng.integers(config.table_blocks - config.scan_blocks + 1)
                )
            else:
                remaining[client] = config.lookup_blocks
                scan_cursor[client] = -1
        disk = table[client]
        if scan_cursor[client] >= 0:
            block = scan_cursor[client]
            scan_cursor[client] += 1
            is_write = False
        else:
            block = hot_rows[disk].next_block()
            # the last touch of a point lookup may be the row update
            is_write = remaining[client] == 1 and bool(
                rng.random() < config.update_fraction
            )
        yield (time, disk, block, 1, is_write)
        remaining[client] -= 1
        if remaining[client] > 0:
            next_time = time + config.intra_query_gap_s
        else:
            next_time = time + float(rng.exponential(config.mean_think_s))
        heapq.heappush(heap, (next_time, client))


def generate_dbms_trace(
    config: DBMSTraceConfig = DBMSTraceConfig(),
) -> ColumnarTrace:
    """Generate the DBMS query-driven trace (streamed, deterministic)."""
    return build_columnar(iter_dbms_rows(config))


# --------------------------------------------------------------------------
# (b) CDN object workload with time-varying popularity (arXiv:2503.02504)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CDNTraceConfig:
    """Knobs for the CDN-style Zipf object generator.

    Requests arrive Poisson at ``1 / mean_interarrival_s``. With
    probability ``reuse_probability`` a request re-fetches a cached-hot
    object through the Fenwick-indexed Zipf reuse stack; otherwise it
    faults in a fresh object drawn uniformly from the *current
    popularity window* — a span of ``window_objects`` ids that slides
    by ``window_drift`` every ``popularity_shift_s`` seconds, modelling
    content churn. Objects span ``1..max_object_blocks`` blocks
    (deterministic per id) and are sharded over the disks by id.
    """

    duration_s: float = 600.0
    num_disks: int = 12
    mean_interarrival_s: float = 0.004
    reuse_probability: float = 0.82
    zipf_a: float = 1.25
    stack_depth: int = 1 << 14
    catalog_objects: int = 500_000
    window_objects: int = 20_000
    window_drift: int = 5_000
    popularity_shift_s: float = 60.0
    max_object_blocks: int = 8
    write_ratio: float = 0.02
    seed: int = 2503

    def __post_init__(self) -> None:
        if self.duration_s <= 0 or self.mean_interarrival_s <= 0:
            raise ConfigurationError("duration and inter-arrival must be > 0")
        if self.num_disks < 1:
            raise ConfigurationError("num_disks must be >= 1")
        if not 0.0 <= self.reuse_probability <= 1.0:
            raise ConfigurationError("reuse_probability must be in [0, 1]")
        if not 0.0 <= self.write_ratio <= 1.0:
            raise ConfigurationError("write_ratio must be in [0, 1]")
        if not 0 < self.window_objects <= self.catalog_objects:
            raise ConfigurationError(
                "need 0 < window_objects <= catalog_objects"
            )
        if self.window_drift < 0 or self.popularity_shift_s <= 0:
            raise ConfigurationError(
                "window_drift must be >= 0 and popularity_shift_s > 0"
            )
        if self.max_object_blocks < 1:
            raise ConfigurationError("max_object_blocks must be >= 1")


def _object_blocks(obj: int, max_blocks: int) -> int:
    """Deterministic per-object size in blocks (no RNG draw consumed)."""
    return 1 + (obj * _OBJECT_HASH) % max_blocks


def iter_cdn_rows(
    config: CDNTraceConfig = CDNTraceConfig(),
) -> Iterator[TraceRow]:
    """Stream the CDN workload rows (Poisson arrivals, drifting window)."""
    rng = np.random.default_rng(config.seed)
    stack = ZipfStackModel(
        rng=rng,
        reuse_probability=config.reuse_probability,
        zipf_a=config.zipf_a,
        max_depth=config.stack_depth,
    )
    num_disks = config.num_disks
    max_blocks = config.max_object_blocks
    window_span = max(1, config.catalog_objects - config.window_objects + 1)
    time = 0.0
    while True:
        time += float(rng.exponential(config.mean_interarrival_s))
        if time > config.duration_s:
            return
        obj = stack.next_key()
        if obj is None:
            epoch = int(time / config.popularity_shift_s)
            window_start = (epoch * config.window_drift) % window_span
            obj = window_start + int(rng.integers(config.window_objects))
            stack.push(obj)
        disk = obj % num_disks
        block = (obj // num_disks) * max_blocks
        yield (
            time,
            disk,
            block,
            _object_blocks(obj, max_blocks),
            bool(rng.random() < config.write_ratio),
        )


def generate_cdn_trace(
    config: CDNTraceConfig = CDNTraceConfig(),
) -> ColumnarTrace:
    """Generate the CDN object trace (streamed, deterministic)."""
    return build_columnar(iter_cdn_rows(config))


# --------------------------------------------------------------------------
# (c) Diurnal multi-tenant workload
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TenantTraceConfig:
    """Knobs for the diurnal multi-tenant generator.

    Each tenant owns ``disks_per_tenant`` disks and a Zipf working set
    of ``footprint_blocks`` spread across them. Tenant ``i``'s request
    rate follows ``base_rate_hz * (1 + amplitude * sin(2*pi * (t /
    period_s + i / num_tenants)))`` — the phase shift staggers the
    tenants' peaks, so the array always has both busy and parkable
    bands. Arrivals are drawn by thinning a peak-rate Poisson process.
    """

    duration_s: float = 1800.0
    num_tenants: int = 6
    disks_per_tenant: int = 3
    base_rate_hz: float = 2.5
    amplitude: float = 0.85
    period_s: float = 600.0
    footprint_blocks: int = 6_000
    zipf_a: float = 1.1
    write_ratio: float = 0.3
    seed: int = 77

    def __post_init__(self) -> None:
        if self.duration_s <= 0 or self.period_s <= 0:
            raise ConfigurationError("duration_s and period_s must be > 0")
        if self.num_tenants < 1 or self.disks_per_tenant < 1:
            raise ConfigurationError("need >= 1 tenant and >= 1 disk each")
        if self.base_rate_hz <= 0:
            raise ConfigurationError("base_rate_hz must be > 0")
        if not 0.0 <= self.amplitude < 1.0:
            raise ConfigurationError(
                "amplitude must be in [0, 1) so the rate stays positive"
            )
        if not 0.0 <= self.write_ratio <= 1.0:
            raise ConfigurationError("write_ratio must be in [0, 1]")
        if self.footprint_blocks < 1:
            raise ConfigurationError("footprint_blocks must be >= 1")

    @property
    def num_disks(self) -> int:
        return self.num_tenants * self.disks_per_tenant


def iter_tenant_rows(
    config: TenantTraceConfig = TenantTraceConfig(),
) -> Iterator[TraceRow]:
    """Stream the multi-tenant rows (thinned phase-shifted Poisson)."""
    rng = np.random.default_rng(config.seed)
    working_sets = [
        ZipfPopularity(
            footprint=config.footprint_blocks,
            rng=rng,
            zipf_a=config.zipf_a,
        )
        for _ in range(config.num_tenants)
    ]
    peak_rate = config.base_rate_hz * (1.0 + config.amplitude)
    peak_gap_s = 1.0 / peak_rate
    two_pi = 2.0 * math.pi
    dpt = config.disks_per_tenant
    heap: list[tuple[float, int]] = []
    for tenant in range(config.num_tenants):
        heapq.heappush(heap, (float(rng.exponential(peak_gap_s)), tenant))
    while heap:
        time, tenant = heapq.heappop(heap)
        if time > config.duration_s:
            continue  # this tenant's stream is exhausted
        phase = time / config.period_s + tenant / config.num_tenants
        rate = config.base_rate_hz * (
            1.0 + config.amplitude * math.sin(two_pi * phase)
        )
        # thinning: accept the candidate with probability rate / peak
        if rng.random() < rate / peak_rate:
            slot = working_sets[tenant].next_block()
            disk = tenant * dpt + slot % dpt
            block = slot // dpt
            yield (time, disk, block, 1, bool(rng.random() < config.write_ratio))
        heapq.heappush(
            heap, (time + float(rng.exponential(peak_gap_s)), tenant)
        )


def generate_tenant_trace(
    config: TenantTraceConfig = TenantTraceConfig(),
) -> ColumnarTrace:
    """Generate the diurnal multi-tenant trace (streamed, deterministic)."""
    return build_columnar(iter_tenant_rows(config))


#: Workload-family registry: name -> (config class, streaming generator).
#: :data:`repro.traces.WORKLOADS` merges it with the paper's three
#: workloads.
ZOO_WORKLOADS = {
    "dbms": (DBMSTraceConfig, generate_dbms_trace),
    "cdn": (CDNTraceConfig, generate_cdn_trace),
    "tenant": (TenantTraceConfig, generate_tenant_trace),
}
