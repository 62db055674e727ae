"""I/O trace records.

A trace is a time-ordered sequence of :class:`IORequest`. Each request
names its target disk, the first block on that disk, a block count, and
whether it is a write — the same fields the paper's traces carry (the
OLTP trace is block-level I/O from SQL Server to the storage system).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Iterable, Sequence

from repro.cache.block import BlockKey
from repro.errors import TraceError


@dataclass(frozen=True, slots=True)
class IORequest:
    """One I/O request as seen by the storage cache."""

    time: float
    disk: int
    block: int
    nblocks: int = 1
    is_write: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.time < inf:
            raise TraceError(
                f"request time must be finite and >= 0, got {self.time}"
            )
        if self.disk < 0:
            raise TraceError(f"disk id must be >= 0, got {self.disk}")
        if self.block < 0:
            raise TraceError(f"block must be >= 0, got {self.block}")
        if self.nblocks < 1:
            raise TraceError(f"nblocks must be >= 1, got {self.nblocks}")

    def block_keys(self) -> list[BlockKey]:
        """The cache-level block keys this request touches."""
        return [(self.disk, self.block + i) for i in range(self.nblocks)]


def validate_trace(trace: Sequence[IORequest]) -> None:
    """Check time-ordering; raises :class:`TraceError` on violations."""
    previous = -1.0
    for i, req in enumerate(trace):
        if req.time < previous:
            raise TraceError(
                f"trace not time-ordered at index {i}: {req.time} < {previous}"
            )
        previous = req.time


def expand_accesses(
    trace: Iterable[IORequest],
) -> list[tuple[float, BlockKey]]:
    """Flatten a trace into per-block ``(time, key)`` accesses.

    This is exactly the ``on_access`` stream the cache will issue, so
    it is what offline policies must be prepared with. Prefer
    :func:`iter_accesses` when the consumer streams (it avoids
    materializing the flattened list).
    """
    return list(iter_accesses(trace))


def iter_accesses(
    trace: Iterable[IORequest],
) -> Iterable[tuple[float, BlockKey]]:
    """Stream the per-block ``(time, key)`` accesses of a trace.

    Same sequence as :func:`expand_accesses` without building the list —
    offline policies consume this directly, halving their peak memory.
    """
    for req in trace:
        time = req.time
        disk = req.disk
        block = req.block
        if req.nblocks == 1:
            yield (time, (disk, block))
        else:
            for i in range(req.nblocks):
                yield (time, (disk, block + i))
