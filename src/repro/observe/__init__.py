"""repro.observe — structured event tracing and runtime invariants.

A zero-dependency observability layer over the simulator: publishers
(:class:`~repro.sim.engine.StorageSimulator`, the cache, the write
policies, the disks, the PA classifier) emit typed events into a
nullable ``probe`` hook — no-op by default — and sinks consume them:

* :class:`RingBufferSink` — last-N events in memory,
* :class:`JSONLSink` — JSONL file / campaign journal,
* :class:`MetricsSink` — batch counters (surfaced as
  ``SimulationResult.trace_metrics`` via
  ``run_simulation(..., trace_events=True)`` and the CLI's
  ``--trace-events``),
* :class:`InvariantChecker` — raises
  :class:`~repro.errors.InvariantViolation` the moment the stream
  breaks a simulation invariant (also enabled suite-wide by the
  ``REPRO_CHECK_INVARIANTS=1`` environment variable).

The ``repro serve`` daemon publishes no events: its session is
probe-free and ``/metrics`` reads the simulator's ledgers and response
samples at scrape time (:mod:`repro.serve.metrics`).
"""

from repro.observe.bus import EventBus, EventSink
from repro.observe.events import (
    EVENT_TYPES,
    CacheHit,
    CacheMiss,
    DirtyFlush,
    DiskFinalized,
    DiskReclassified,
    DiskService,
    DiskSpinDown,
    DiskSpinUp,
    EpochRollover,
    Event,
    Evict,
    Insert,
    LogAppend,
    LogFlush,
    RequestComplete,
    SimulationStart,
    SpeedChange,
    StateDwell,
)
from repro.observe.invariants import InvariantChecker
from repro.observe.sinks import JSONLSink, MetricsSink, RingBufferSink

__all__ = [
    "EVENT_TYPES",
    "CacheHit",
    "CacheMiss",
    "DirtyFlush",
    "DiskFinalized",
    "DiskReclassified",
    "DiskService",
    "DiskSpinDown",
    "DiskSpinUp",
    "EpochRollover",
    "Event",
    "EventBus",
    "EventSink",
    "Evict",
    "Insert",
    "InvariantChecker",
    "JSONLSink",
    "LogAppend",
    "LogFlush",
    "MetricsSink",
    "RequestComplete",
    "RingBufferSink",
    "SimulationStart",
    "SpeedChange",
    "StateDwell",
]
