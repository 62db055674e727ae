"""Cheap deterministic trace fingerprints.

The campaign result store (:mod:`repro.campaign.store`) needs a stable
identity for a workload so cached simulation results are only reused
for the *same* trace. Hashing every field of every record through a
cryptographic hash would dominate small campaigns, so the fingerprint
combines two layers:

* **whole-trace aggregates** computed with plain integer arithmetic in
  one O(n) pass (request count, write count, block volume, time span,
  and order-sensitive running sums of the record fields), and
* **a bounded sample** of records (first, last, and up to
  :data:`SAMPLE_LIMIT` evenly strided interior records) hashed exactly.

Two traces that differ in any record almost surely differ in the
aggregates (the running sums are position-weighted, so reorderings are
caught too), and any difference near the sampled positions is caught
exactly. The digest is a hex SHA-256, stable across processes and
Python versions.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

from repro.traces.columnar import ColumnarTrace
from repro.traces.record import IORequest
from repro.units import US_PER_S

#: Maximum number of interior records hashed exactly.
SAMPLE_LIMIT = 64

_MASK = (1 << 64) - 1


def _record_token(req: IORequest) -> bytes:
    """Canonical byte form of one record (microsecond-stable time)."""
    op = "W" if req.is_write else "R"
    return f"{req.time:.6f},{req.disk},{req.block},{req.nblocks},{op}".encode()


def _columnar_aggregates(trace: ColumnarTrace):
    """Vectorized aggregate pass for columnar traces.

    uint64 arithmetic wraps modulo 2**64, which is exactly the
    ``& _MASK`` reduction of the scalar loop; per-element ``int(t*1e6)``
    is an ``astype(int64)`` truncation for the non-negative times a
    valid trace carries.
    """
    n = len(trace)
    positions = np.arange(1, n + 1, dtype=np.uint64)
    one = np.uint64(1)
    writes = int(trace.is_write.sum())
    volume = int(trace.nblocks.sum())
    block_sum = int(
        (positions * (trace.blocks.astype(np.uint64) + one)).sum(
            dtype=np.uint64
        )
    )
    disk_sum = int(
        (positions * (trace.disks.astype(np.uint64) + one)).sum(
            dtype=np.uint64
        )
    )
    time_sum_us = int(
        (trace.times * US_PER_S).astype(np.int64).astype(np.uint64).sum(
            dtype=np.uint64
        )
    )
    return writes, volume, block_sum, disk_sum, time_sum_us


def trace_fingerprint(trace: Sequence[IORequest] | ColumnarTrace) -> str:
    """Hex SHA-256 identity of a trace, cheap enough to always compute.

    The empty trace has a well-defined fingerprint. Fingerprints are
    order-sensitive: swapping two equal-time records changes the value.
    Columnar traces produce the identical digest to their expanded
    record form (the aggregates vectorize; the sampled records hash the
    same bytes).
    """
    digest = hashlib.sha256()
    n = len(trace)
    if n and isinstance(trace, ColumnarTrace):
        writes, volume, block_sum, disk_sum, time_sum_us = (
            _columnar_aggregates(trace)
        )
    else:
        writes = 0
        volume = 0
        block_sum = 0
        disk_sum = 0
        time_sum_us = 0
        for position, req in enumerate(trace, start=1):
            weight = position & _MASK
            writes += req.is_write
            volume += req.nblocks
            block_sum = (block_sum + weight * (req.block + 1)) & _MASK
            disk_sum = (disk_sum + weight * (req.disk + 1)) & _MASK
            time_sum_us = (time_sum_us + int(req.time * US_PER_S)) & _MASK
    span = f"{trace[-1].time - trace[0].time:.6f}" if n else "0"
    digest.update(
        f"n={n};w={writes};v={volume};b={block_sum};"
        f"d={disk_sum};t={time_sum_us};s={span}".encode()
    )
    if n:
        stride = max(1, n // SAMPLE_LIMIT)
        for index in range(0, n, stride):
            digest.update(b"|")
            digest.update(_record_token(trace[index]))
        digest.update(b"|")
        digest.update(_record_token(trace[-1]))
    return digest.hexdigest()
