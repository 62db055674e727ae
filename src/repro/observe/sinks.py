"""Pluggable event sinks: ring buffer, JSONL file, counters.

* :class:`RingBufferSink` — the last N events in memory, for test
  assertions and post-mortem windows.
* :class:`JSONLSink` — one JSON object per event, either to its own
  file or piggybacked onto a campaign
  :class:`~repro.campaign.journal.RunJournal` (events appear as
  ``trace`` records between the journal's ``point`` records).
* :class:`MetricsSink` — counters over one run's event stream:
  per-kind event counts, per-disk energy/spin tallies, hit/miss
  totals. Its :meth:`~MetricsSink.as_dict` aggregate is what
  ``run_simulation(..., trace_events=True)`` surfaces as
  ``SimulationResult.trace_metrics``. The ``repro serve`` daemon keeps
  no sink: its ``/metrics`` come from the simulator's ledgers and
  response samples (:mod:`repro.serve.metrics`).
"""

from __future__ import annotations

import json
from collections import Counter, deque
from pathlib import Path
from typing import TextIO

from repro.observe.bus import EventSink
from repro.observe.events import (
    CacheHit,
    CacheMiss,
    DirtyFlush,
    DiskFinalized,
    DiskService,
    DiskSpinDown,
    DiskSpinUp,
    EpochRollover,
    Event,
    Evict,
    Insert,
    RequestComplete,
    StateDwell,
)


class RingBufferSink(EventSink):
    """Keeps the most recent ``capacity`` events."""

    def __init__(self, capacity: int = 4096) -> None:
        self._buffer: deque[Event] = deque(maxlen=capacity)

    def handle(self, event: Event) -> None:
        self._buffer.append(event)

    @property
    def events(self) -> list[Event]:
        """Buffered events, oldest first."""
        return list(self._buffer)

    def of_kind(self, kind: str) -> list[Event]:
        """Buffered events with the given ``kind`` tag."""
        return [e for e in self._buffer if e.kind == kind]

    def __len__(self) -> int:
        return len(self._buffer)

    def clear(self) -> None:
        self._buffer.clear()


class JSONLSink(EventSink):
    """Writes each event as one JSON line.

    Args:
        target: A path (a fresh JSONL file is created) or an open
            :class:`~repro.campaign.journal.RunJournal` — events are
            then written through the journal as ``trace`` records and
            the journal's lifecycle is respected (it is *not* closed by
            this sink).
    """

    def __init__(self, target) -> None:
        self._journal = None
        self._fh: TextIO | None = None
        if hasattr(target, "write") and not isinstance(target, (str, Path)):
            # a RunJournal (duck-typed: .write(event, **fields))
            self._journal = target
        else:
            self._fh = open(Path(target), "w")
        self.events_written = 0

    def handle(self, event: Event) -> None:
        data = event.to_dict()
        if self._journal is not None:
            self._journal.write("trace", **data)
        else:
            self._fh.write(json.dumps(data, sort_keys=True) + "\n")
        self.events_written += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class MetricsSink(EventSink):
    """Counters over one run's event stream.

    Maintains per-kind event counts plus the aggregates the tests and
    the CLI surface: per-disk energy (dwell + transitions + service,
    exactly the joules the events carry), per-disk spin-up/down counts,
    cache hit/miss/eviction totals, and request count/latency sum.
    """

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()
        self.disk_energy_j: dict[int, float] = {}
        self.disk_dwell_s: dict[int, float] = {}
        self.disk_account_energy_j: dict[int, float] = {}
        self.spinups = 0
        self.spindowns = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.dirty_flushes = 0
        self.requests = 0
        self.latency_sum_s = 0.0
        self.epochs = 0

    def _add_energy(self, disk: int, energy_j: float) -> None:
        self.disk_energy_j[disk] = self.disk_energy_j.get(disk, 0.0) + energy_j

    def handle(self, event: Event) -> None:
        self.counts[event.kind] += 1
        if isinstance(event, StateDwell):
            self._add_energy(event.disk, event.energy_j)
            self.disk_dwell_s[event.disk] = (
                self.disk_dwell_s.get(event.disk, 0.0) + event.seconds
            )
        elif isinstance(event, DiskService):
            self._add_energy(event.disk, event.energy_j)
        elif isinstance(event, DiskSpinDown):
            self._add_energy(event.disk, event.energy_j)
            self.spindowns += event.count
        elif isinstance(event, DiskSpinUp):
            self._add_energy(event.disk, event.energy_j)
            self.spinups += 1
        elif isinstance(event, CacheHit):
            self.hits += 1
        elif isinstance(event, CacheMiss):
            self.misses += 1
        elif isinstance(event, Evict):
            self.evictions += 1
        elif isinstance(event, DirtyFlush):
            self.dirty_flushes += 1
        elif isinstance(event, RequestComplete):
            self.requests += 1
            self.latency_sum_s += event.latency_s
        elif isinstance(event, DiskFinalized):
            self.disk_account_energy_j[event.disk] = event.account_energy_j
        elif isinstance(event, EpochRollover):
            self.epochs += 1
        elif isinstance(event, Insert):
            pass  # counted via `counts` only

    @property
    def total_energy_j(self) -> float:
        """Energy summed over every disk's streamed events."""
        return sum(self.disk_energy_j.values())

    def as_dict(self) -> dict:
        """JSON-safe snapshot (disk keys become strings)."""
        return {
            "events": dict(sorted(self.counts.items())),
            "disk_energy_j": {
                str(d): e for d, e in sorted(self.disk_energy_j.items())
            },
            "total_energy_j": self.total_energy_j,
            "spinups": self.spinups,
            "spindowns": self.spindowns,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "dirty_flushes": self.dirty_flushes,
            "requests": self.requests,
            "mean_latency_s": (
                self.latency_sum_s / self.requests if self.requests else 0.0
            ),
            "epochs": self.epochs,
        }
