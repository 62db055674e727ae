"""Asyncio load generator for the serve daemon.

Replays synthetic users against a running daemon: the request stream
comes from the repo's own trace generators (the paper's synthetic
Zipf mix or the OLTP-like generator), is partitioned round-robin
across ``users`` concurrent TCP connections, and each user sends,
awaits the acknowledgement, honours ``RETRY`` backpressure, and
records client-visible latencies; the report's p50/p95/p99 are exact
(:meth:`~repro.sim.results.ResponseStats.from_samples`).

Two stamping modes:

- **wall mode** (default): generated arrival times are discarded and
  the daemon stamps each request from its lockstep clock — the normal
  live-traffic shape.
- **explicit-time mode** (``explicit_time_base`` set): each request
  pins ``t=`` from the generated trace, offset by the base. The
  daemon's simulated timeline is then fully determined by the request
  stream, which is what makes the smoke harness's digest comparisons
  possible. Requires ``users=1`` — explicit times from concurrent
  connections would interleave out of order.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

from repro.errors import ConfigurationError, ServeError
from repro.serve.protocol import (
    VERB_OK,
    VERB_RETRY,
    format_request,
    parse_response_line,
)
from repro.sim.results import ResponseStats
from repro.traces.oltp import OLTPTraceConfig, generate_oltp_trace_columnar
from repro.traces.synthetic import (
    SyntheticTraceConfig,
    generate_synthetic_trace_columnar,
)

WORKLOADS = ("zipf", "oltp")

#: Cap a single advised backoff so a draining daemon cannot stall the
#: generator for seconds per request.
MAX_CLIENT_BACKOFF_S = 0.5

#: Give up on a request after this many RETRYs (counted as an error —
#: the request was never acknowledged, so nothing is lost).
MAX_RETRIES_PER_REQUEST = 200


@dataclass(slots=True)
class LoadConfig:
    """Generator knobs (CLI flags map one-to-one)."""

    host: str = "127.0.0.1"
    port: int = 0
    users: int = 8
    requests: int = 10_000
    workload: str = "zipf"
    num_disks: int = 4
    seed: int = 42
    #: Pause between a user's consecutive requests (wall seconds).
    pace_s: float = 0.0
    #: When set, pin explicit ``t=`` stamps offset by this base.
    explicit_time_base: float | None = None

    def __post_init__(self) -> None:
        if self.users < 1:
            raise ConfigurationError("users must be >= 1")
        if self.requests < 1:
            raise ConfigurationError("requests must be >= 1")
        if self.workload not in WORKLOADS:
            raise ConfigurationError(
                f"workload must be one of {WORKLOADS}, got {self.workload!r}"
            )
        if self.explicit_time_base is not None and self.users != 1:
            raise ConfigurationError(
                "explicit-time mode needs users=1 (concurrent connections "
                "would interleave explicit stamps out of order)"
            )


@dataclass(slots=True)
class LoadReport:
    """What happened, from the clients' point of view."""

    sent: int = 0
    acked: int = 0
    retried: int = 0
    errors: int = 0
    elapsed_wall_s: float = 0.0
    p50_latency_s: float = 0.0
    p95_latency_s: float = 0.0
    p99_latency_s: float = 0.0

    @property
    def rps(self) -> float:
        if self.elapsed_wall_s <= 0:
            return 0.0
        return self.acked / self.elapsed_wall_s

    def to_dict(self) -> dict:
        return {
            "sent": self.sent,
            "acked": self.acked,
            "retried": self.retried,
            "errors": self.errors,
            "elapsed_wall_s": self.elapsed_wall_s,
            "rps": self.rps,
            "p50_latency_s": self.p50_latency_s,
            "p95_latency_s": self.p95_latency_s,
            "p99_latency_s": self.p99_latency_s,
        }


def generate_workload(config: LoadConfig) -> list[tuple]:
    """Materialize the request stream as protocol field tuples.

    Returns ``(req_id, disk, block, nblocks, is_write, time)`` tuples
    in trace order; ``time`` is ``None`` in wall mode.
    """
    if config.workload == "zipf":
        trace = generate_synthetic_trace_columnar(
            SyntheticTraceConfig(
                num_requests=config.requests,
                num_disks=config.num_disks,
                seed=config.seed,
            )
        )
    else:
        oltp = OLTPTraceConfig(
            num_disks=max(config.num_disks, 2),
            num_hot_disks=max(config.num_disks // 2, 1),
            duration_s=max(config.requests * 0.099 * 1.5, 60.0),
            seed=config.seed,
        )
        trace = generate_oltp_trace_columnar(oltp)
        if len(trace) < config.requests:
            raise ConfigurationError(
                f"OLTP generator produced {len(trace)} requests, "
                f"fewer than the requested {config.requests}"
            )
        trace = trace[: config.requests]
    base = config.explicit_time_base
    items = []
    for i, (time, disk, block, nblocks, is_write) in enumerate(
        zip(*trace.as_lists())
    ):
        stamp = None if base is None else base + time
        items.append((f"r{i}", disk, block, nblocks, is_write, stamp))
    return items


async def _run_user(
    config: LoadConfig,
    items: list[tuple],
    report: LoadReport,
    latencies: list[float],
) -> None:
    reader, writer = await asyncio.open_connection(config.host, config.port)
    try:
        for req_id, disk, block, nblocks, is_write, stamp in items:
            line = format_request(
                req_id, disk, block, nblocks, is_write, stamp
            )
            payload = line.encode("ascii") + b"\n"
            report.sent += 1
            retries = 0
            while True:
                writer.write(payload)
                await writer.drain()
                raw = await reader.readline()
                if not raw:
                    raise ServeError("daemon closed the connection")
                response = parse_response_line(raw.decode("ascii").strip())
                if response.verb == VERB_OK:
                    report.acked += 1
                    latencies.append(response.value)
                    break
                if response.verb == VERB_RETRY:
                    report.retried += 1
                    retries += 1
                    if retries > MAX_RETRIES_PER_REQUEST:
                        report.errors += 1
                        break
                    await asyncio.sleep(
                        min(response.value, MAX_CLIENT_BACKOFF_S)
                    )
                    continue
                report.errors += 1
                break
            if config.pace_s > 0:
                await asyncio.sleep(config.pace_s)
    finally:
        writer.close()


async def run_load(config: LoadConfig) -> LoadReport:
    """Drive the full workload; returns the aggregated report."""
    items = generate_workload(config)
    report = LoadReport()
    latencies: list[float] = []
    started = time.monotonic()
    if config.users == 1:
        await _run_user(config, items, report, latencies)
    else:
        shards = [items[u :: config.users] for u in range(config.users)]
        await asyncio.gather(
            *(
                _run_user(config, shard, report, latencies)
                for shard in shards
                if shard
            )
        )
    report.elapsed_wall_s = time.monotonic() - started
    stats = ResponseStats.from_samples(latencies)
    report.p50_latency_s = stats.median_s
    report.p95_latency_s = stats.p95_s
    report.p99_latency_s = stats.p99_s
    return report
