"""Pluggable event sinks: ring buffer, JSONL file, counters/metrics.

* :class:`RingBufferSink` — the last N events in memory, for test
  assertions and post-mortem windows.
* :class:`JSONLSink` — one JSON object per event, either to its own
  file or piggybacked onto a campaign
  :class:`~repro.campaign.journal.RunJournal` (events appear as
  ``trace`` records between the journal's ``point`` records).
* :class:`MetricsSink` — streaming counters: per-kind event counts,
  per-disk energy/spin tallies, hit/miss totals. Its :meth:`as_dict`
  snapshot is what ``run_simulation(..., trace_events=True)`` surfaces
  as ``SimulationResult.trace_metrics``; its O(1) :meth:`~MetricsSink.
  snapshot` is a live view with request-latency p50/p95/p99 from
  streaming :class:`P2Quantile` estimators (no sample buffer, no
  finalize). The ``repro serve`` daemon keeps one for its request,
  latency and ingest series (:meth:`~MetricsSink.add_latencies`); its
  ``/metrics`` engine series come from the simulator's ledgers
  (:mod:`repro.serve.metrics`).
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
    IngestAccepted,
    IngestRejected,
    Insert,
    RequestComplete,
    StateDwell,
)
from repro.snapshot import expect_length, load_state, state_of


class P2Quantile:
    """Streaming quantile estimate via the P² algorithm (Jain &
    Chlamtac 1985): five markers, O(1) memory and update, no stored
    samples. Exact until five observations arrive, then a piecewise-
    parabolic approximation that converges on the true quantile.
    """

    __slots__ = ("q", "_heights", "_positions", "_desired", "_dn", "_n")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        self.q = q
        self._heights: list[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1 + 2 * q, 1 + 4 * q, 3 + 2 * q, 5.0]
        self._dn = [0.0, q / 2, q, (1 + q) / 2, 1.0]
        self._n = 0

    def add(self, sample: float) -> None:
        self._n += 1
        heights = self._heights
        if self._n <= 5:
            heights.append(sample)
            heights.sort()
            return
        positions = self._positions
        if sample < heights[0]:
            heights[0] = sample
            cell = 0
        elif sample >= heights[4]:
            heights[4] = sample
            cell = 3
        else:
            cell = 0
            while sample >= heights[cell + 1]:
                cell += 1
        for i in range(cell + 1, 5):
            positions[i] += 1.0
        desired = self._desired
        for i in range(5):
            desired[i] += self._dn[i]
        for i in (1, 2, 3):
            d = desired[i] - positions[i]
            below = positions[i] - positions[i - 1]
            above = positions[i + 1] - positions[i]
            if (d >= 1.0 and above > 1.0) or (d <= -1.0 and below > 1.0):
                step = 1.0 if d >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:  # parabolic estimate left the bracket: go linear
                    j = i + (1 if step > 0 else -1)
                    heights[i] += step * (heights[j] - heights[i]) / (
                        positions[j] - positions[i]
                    )
                positions[i] += step

    def _parabolic(self, i: int, step: float) -> float:
        h, n = self._heights, self._positions
        return h[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step)
            * (h[i + 1] - h[i])
            / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step)
            * (h[i] - h[i - 1])
            / (n[i] - n[i - 1])
        )

    @property
    def count(self) -> int:
        return self._n

    def state_dict(self) -> dict:
        """The five markers (heights, positions, desired positions) and
        the observation count; ``q`` and the increments are parameters."""
        return {
            "heights": list(self._heights),
            "positions": list(self._positions),
            "desired": list(self._desired),
            "n": self._n,
        }

    def load_state_dict(self, state: dict) -> None:
        n = int(state["n"])
        heights = [float(h) for h in state["heights"]]
        positions = [float(p) for p in state["positions"]]
        desired = [float(d) for d in state["desired"]]
        if len(heights) != min(n, 5) or not len(positions) == len(desired) == 5:
            raise ValueError("P2 markers do not match the observation count")
        self._n = n
        self._heights = heights
        self._positions = positions
        self._desired = desired

    def value(self) -> float:
        """Current estimate (0.0 before any observation)."""
        if self._n == 0:
            return 0.0
        if self._n <= 5:
            # exact small-sample quantile (nearest-rank)
            rank = max(0, min(self._n - 1, round(self.q * (self._n - 1))))
            return self._heights[rank]
        return self._heights[2]


#: :class:`MetricsSink` scalar fields, in snapshot order.
_SCALARS = (
    "spinups",
    "spindowns",
    "hits",
    "misses",
    "evictions",
    "dirty_flushes",
    "requests",
    "latency_sum_s",
    "epochs",
    "ingest_accepted",
    "ingest_rejected",
    "last_queue_depth",
    "energy_sum_j",
)

#: :class:`MetricsSink` per-disk maps (JSON object keys are strings).
_DISK_MAPS = ("disk_energy_j", "disk_dwell_s", "disk_account_energy_j")


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
    """Streaming counters over the event stream.

    Maintains per-kind event counts plus the aggregates the tests and
    the CLI surface: per-disk energy (dwell + transitions + service,
    exactly the joules the events carry), per-disk spin-up/down counts,
    cache hit/miss/eviction totals, and request count/latency sum.
    """

    #: Latency quantiles tracked live for :meth:`snapshot`.
    QUANTILES = (0.5, 0.95, 0.99)

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
        self.ingest_accepted = 0
        self.ingest_rejected = 0
        self.last_queue_depth = 0
        #: Running event-energy total (kept so :meth:`snapshot` is O(1)
        #: even with thousands of disks; equals ``total_energy_j``).
        self.energy_sum_j = 0.0
        self._latency_q = {q: P2Quantile(q) for q in self.QUANTILES}

    def _add_energy(self, disk: int, energy_j: float) -> None:
        self.disk_energy_j[disk] = self.disk_energy_j.get(disk, 0.0) + energy_j
        self.energy_sum_j += energy_j

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
            self.add_latencies((event.latency_s,))
        elif isinstance(event, IngestAccepted):
            self.ingest_accepted += 1
            self.last_queue_depth = event.queue_depth
        elif isinstance(event, IngestRejected):
            self.ingest_rejected += 1
            self.last_queue_depth = event.queue_depth
        elif isinstance(event, DiskFinalized):
            self.disk_account_energy_j[event.disk] = event.account_energy_j
        elif isinstance(event, EpochRollover):
            self.epochs += 1
        elif isinstance(event, Insert):
            pass  # counted via `counts` only

    def add_latencies(self, latencies) -> None:
        """Count served requests from their latencies, in order — what
        one :class:`RequestComplete` event per request would do. The
        serve daemon calls this with each fed batch's latencies instead
        of streaming events."""
        estimators = tuple(self._latency_q.values())
        for latency in latencies:
            self.requests += 1
            self.latency_sum_s += latency
            for estimator in estimators:
                estimator.add(latency)

    # -- snapshots (see repro.snapshot) -----------------------------------------

    def state_dict(self) -> dict:
        """Every counter, the per-disk maps (insertion order kept: the
        energy total sums them in that order) and the P² markers, so a
        restored serve daemon's ``/metrics`` continues where the
        checkpointed one stood."""
        state = {name: getattr(self, name) for name in _SCALARS}
        state["counts"] = dict(self.counts)
        for name in _DISK_MAPS:
            state[name] = {str(d): v for d, v in getattr(self, name).items()}
        state["latency_q"] = [
            state_of(self._latency_q[q]) for q in self.QUANTILES
        ]
        return state

    def load_state_dict(self, state: dict) -> None:
        scalars = {
            name: type(getattr(self, name))(state[name]) for name in _SCALARS
        }
        counts = Counter({str(k): int(v) for k, v in state["counts"].items()})
        disk_maps = {
            name: {int(d): float(v) for d, v in state[name].items()}
            for name in _DISK_MAPS
        }
        quantiles = list(state["latency_q"])
        expect_length("latency estimators", quantiles, len(self.QUANTILES))
        for q, q_state in zip(self.QUANTILES, quantiles):
            load_state(self._latency_q[q], q_state)
        for name, value in {**scalars, **disk_maps}.items():
            setattr(self, name, value)
        self.counts = counts

    @property
    def total_energy_j(self) -> float:
        """Energy summed over every disk's streamed events."""
        return sum(self.disk_energy_j.values())

    def latency_quantile_s(self, q: float) -> float:
        """Streaming estimate of the request-latency ``q``-quantile."""
        estimator = self._latency_q.get(q)
        if estimator is None:
            raise KeyError(
                f"quantile {q} is not tracked; tracked: {self.QUANTILES}"
            )
        return estimator.value()

    def snapshot(self) -> dict:
        """O(1) live view for the ``/metrics`` endpoint.

        Unlike :meth:`as_dict` (the finalize-time aggregate surfaced as
        ``trace_metrics``, unchanged), this never iterates the per-kind
        or per-disk maps — every field is a counter or a streaming
        estimate that is already maintained, so scraping mid-run costs
        nothing no matter how large the run is.
        """
        hits, misses = self.hits, self.misses
        accesses = hits + misses
        return {
            "requests": self.requests,
            "hits": hits,
            "misses": misses,
            "hit_ratio": hits / accesses if accesses else 0.0,
            "evictions": self.evictions,
            "dirty_flushes": self.dirty_flushes,
            "spinups": self.spinups,
            "spindowns": self.spindowns,
            "epochs": self.epochs,
            "energy_so_far_j": self.energy_sum_j,
            "mean_latency_s": (
                self.latency_sum_s / self.requests if self.requests else 0.0
            ),
            "p50_latency_s": self._latency_q[0.5].value(),
            "p95_latency_s": self._latency_q[0.95].value(),
            "p99_latency_s": self._latency_q[0.99].value(),
            "ingest_accepted": self.ingest_accepted,
            "ingest_rejected": self.ingest_rejected,
            "ingest_queue_depth": self.last_queue_depth,
        }

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
