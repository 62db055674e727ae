"""Bounded ingest queue with explicit backpressure.

The daemon never buffers without bound: accepted requests enter a
fixed-capacity FIFO between the network layer and the simulation
session, and when the queue is full the *client* is told to back off
with an explicit ``RETRY <after_s>`` response — the request is dropped
at the door, unacknowledged, so "zero lost acknowledged requests"
stays trivially true under any overload.

The advised backoff is derived from the observed drain rate: the feed
worker reports how long each batch took, an exponentially-weighted
per-request cost absorbs the noise, and a rejected client is told to
come back roughly when half the current backlog will have drained.
"""

from __future__ import annotations

import asyncio
from typing import Any

from repro.errors import ConfigurationError

#: Clamp for the advised retry backoff (seconds).
MIN_RETRY_AFTER_S = 0.02
MAX_RETRY_AFTER_S = 5.0

#: EWMA smoothing for the per-request drain cost.
DRAIN_EWMA_ALPHA = 0.2

#: Pessimistic per-request cost before the first drain observation.
INITIAL_DRAIN_S = 1e-4


class IngestQueue:
    """Fixed-capacity FIFO between ingest and the feed worker.

    Items are opaque to the queue (the daemon enqueues
    ``(IORequest, req_id, ack)`` triples). All methods are event-loop
    local — the daemon is single-threaded asyncio, so no locking.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"ingest queue capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self._items: list[Any] = []
        self._start = 0  # pop cursor: amortized O(1) FIFO over a list
        self._available = asyncio.Event()
        self._drain_cost_s = INITIAL_DRAIN_S
        self.accepted_total = 0
        self.rejected_total = 0
        #: Depth after the last :meth:`offer`, accepted or rejected.
        self.last_depth = 0

    def __len__(self) -> int:
        return len(self._items) - self._start

    def offer(self, item: Any) -> tuple[bool, float]:
        """Try to enqueue; returns ``(accepted, retry_after_s)``.

        ``retry_after_s`` is 0.0 on acceptance, else the advised
        backoff for the explicit rejection.
        """
        depth = len(self)
        if depth >= self.capacity:
            self.rejected_total += 1
            self.last_depth = depth
            return False, self.retry_after_s()
        self._items.append(item)
        self.accepted_total += 1
        self.last_depth = depth + 1
        self._available.set()
        return True, 0.0

    def take_batch(self, max_items: int) -> list[Any]:
        """Pop up to ``max_items`` in FIFO order (may be empty)."""
        start = self._start
        end = min(start + max_items, len(self._items))
        batch = self._items[start:end]
        self._start = end
        if self._start >= len(self._items):
            self._items.clear()
            self._start = 0
            self._available.clear()
        return batch

    async def wait_for_items(self) -> None:
        """Block until at least one item is queued."""
        await self._available.wait()

    def note_drain(self, items: int, wall_s: float) -> None:
        """Feed-worker telemetry: ``items`` drained in ``wall_s``."""
        if items <= 0:
            return
        per_item = max(wall_s / items, 0.0)
        self._drain_cost_s += DRAIN_EWMA_ALPHA * (
            per_item - self._drain_cost_s
        )

    def retry_after_s(self) -> float:
        """Advised backoff: roughly half the backlog's drain time."""
        backlog = max(len(self), 1)
        estimate = 0.5 * backlog * self._drain_cost_s
        return min(max(estimate, MIN_RETRY_AFTER_S), MAX_RETRY_AFTER_S)
