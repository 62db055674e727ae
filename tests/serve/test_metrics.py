"""``/metrics`` from the simulator's ledgers.

The daemon's session runs probe-free, so its engine series come from
``CacheStats``, the write policy's ``disk_writes``, each disk's
``EnergyAccount`` and the PA classifier, not from events. These tests
pin those ledgers to what a :class:`MetricsSink` counts from the
reference loop's event stream, and check that a restored daemon's
``/metrics`` continues — also from a checkpoint written while the
series still came from events, and from one that carries no metrics.
"""

import asyncio
from pathlib import Path

import pytest

from repro.observe.bus import EventBus
from repro.observe.sinks import MetricsSink
from repro.serve.checkpoint import load_checkpoint, save_checkpoint
from repro.serve.daemon import ServeConfig, ServeDaemon
from repro.serve.metrics import (
    GAUGES,
    ledger_series,
    parse_metrics,
    render_metrics,
)
from repro.sim import build_session
from repro.traces.synthetic import generate_synthetic_trace
from repro.traces.zoo import CDNTraceConfig, generate_cdn_trace

from tests.integration.golden_spec import (
    COMMON_KWARGS,
    GOLDEN_RUNS,
    TRACE_CONFIG,
)
from tests.serve.test_daemon import (
    SESSION,
    drain,
    http_exchange,
    req_lines,
    small_trace,
    start_daemon,
    tcp_exchange,
)

#: Written by the daemon while its ``/metrics`` engine series were
#: counted from events: an ``lru`` + ``wtdu`` session (``SESSION`` with
#: 8 cache blocks) fed ``small_trace(90)[:60]`` over TCP, then drained
#: (the drain checkpoint). Its sink state carries engine counters too.
EVENT_METRICS_CHECKPOINT = (
    Path(__file__).parent / "fixtures" / "checkpoint-v2-event-metrics.json"
)

#: The golden configurations, plus PA-LRU under WTDU (the serve
#: benchmark's policy pair) with and without prefetching, and LRU on a
#: multi-block CDN trace.
CONFIGS = {
    **{name: dict(kwargs) for name, kwargs in GOLDEN_RUNS.items()},
    "pa-lru-wtdu": {"policy": "pa-lru", "write_policy": "wtdu",
                    "pa_epoch_s": 120.0},
    "pa-lru-wtdu-prefetch": {"policy": "pa-lru", "write_policy": "wtdu",
                             "pa_epoch_s": 120.0, "prefetch_depth": 4},
    "cdn-lru": {"policy": "lru"},
}

INTEGER_SERIES = (
    "hits", "misses", "evictions", "dirty_flushes", "spinups", "spindowns",
    "epochs",
)


def _assert_ledgers_match_events(simulator, sink):
    ledger = ledger_series(simulator)
    for key in INTEGER_SERIES:
        assert ledger[key] == getattr(sink, key), key
    assert ledger["hit_ratio"] == sink.snapshot()["hit_ratio"]
    close = {"rel": 1e-12, "abs": 0.0}
    assert ledger["energy_so_far_j"] == pytest.approx(
        sink.energy_sum_j, **close
    )
    assert set(sink.disk_energy_j) <= set(ledger["disk_energy_j"])
    for disk, joules in ledger["disk_energy_j"].items():
        assert joules == pytest.approx(
            sink.disk_energy_j.get(disk, 0.0), **close
        ), disk
    for disk, seconds in ledger["disk_dwell_s"].items():
        assert seconds == pytest.approx(
            sink.disk_dwell_s.get(disk, 0.0), **close
        ), disk


class TestLedgersEqualTheEventStream:
    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_mid_run_and_at_finish(self, name):
        if name == "cdn-lru":
            trace = generate_cdn_trace(
                CDNTraceConfig(
                    duration_s=12.0, num_disks=5, write_ratio=0.2, seed=11
                )
            ).to_requests()
        else:
            trace = generate_synthetic_trace(TRACE_CONFIG)
        bus = EventBus()
        sink = bus.attach(MetricsSink())
        session = build_session(
            trace, probe=bus, **{**COMMON_KWARGS, **CONFIGS[name]}
        )
        simulator = session.simulator
        simulator.prepare_offline()
        handle = simulator.handle_request
        for i, request in enumerate(trace, start=1):
            handle(request)
            if i % 500 == 0:
                _assert_ledgers_match_events(simulator, sink)
        assert sink.hits and sink.misses and sink.energy_sum_j > 0
        simulator.finish(trace[-1].time + simulator.config.trace_tail_s)
        _assert_ledgers_match_events(simulator, sink)

    def test_add_latencies_equals_request_events(self):
        trace = generate_synthetic_trace(TRACE_CONFIG)[:600]
        bus = EventBus()
        from_events = bus.attach(MetricsSink())
        session = build_session(probe=bus, **{**COMMON_KWARGS, "policy": "lru"})
        from_latencies = MetricsSink()
        for start in range(0, len(trace), 32):
            from_latencies.add_latencies(session.feed(trace[start:start + 32]))
        keys = ("requests", "mean_latency_s", "p50_latency_s",
                "p95_latency_s", "p99_latency_s")
        fed, streamed = from_latencies.snapshot(), from_events.snapshot()
        assert {k: fed[k] for k in keys} == {k: streamed[k] for k in keys}
        assert from_latencies.latency_sum_s == from_events.latency_sum_s
        assert fed["requests"] == 600


class TestRestoredMetrics:
    def test_checkpoint_with_event_counted_metrics(self):
        """A checkpoint whose sink counted the engine series from events
        restores with continuous ``/metrics``: its engine counters are
        ignored, since the restored ledgers carry the same series."""
        trace = small_trace(90)
        session = {**SESSION, "cache_blocks": 8, "write_policy": "wtdu"}
        checkpoint = load_checkpoint(EVENT_METRICS_CHECKPOINT)
        assert {key: checkpoint.params[key] for key in session} == session
        assert checkpoint.served == 60 and checkpoint.metrics["hits"] > 0

        async def serve(**config):
            daemon = await start_daemon(**config)
            if daemon.replayed == 0:
                await tcp_exchange(daemon.tcp_port, req_lines(trace[:60]))
            await tcp_exchange(daemon.tcp_port, req_lines(trace[60:]))
            _, text = await http_exchange(daemon.http_port, "GET", "/metrics")
            await drain(daemon)
            return parse_metrics(text, gauges=False)

        uninterrupted = asyncio.run(serve(session_params=session))
        restored = asyncio.run(
            serve(restore_path=str(EVENT_METRICS_CHECKPOINT))
        )
        assert restored["repro_requests_total"] == 90
        assert restored["repro_cache_evictions_total"] > 0
        assert restored == uninterrupted

    def test_checkpoint_without_metrics_keeps_the_engine_series(
        self, tmp_path
    ):
        """``metrics: null`` restores an empty sink, but the engine
        series still cover the restored prefix."""
        trace = small_trace(60)
        session = build_session(record_requests=True, **SESSION)
        session.feed(trace)
        path = save_checkpoint(session.checkpoint(), tmp_path / "cp.json")
        assert load_checkpoint(path).metrics is None

        async def scrape():
            daemon = await start_daemon(restore_path=str(path))
            _, text = await http_exchange(daemon.http_port, "GET", "/metrics")
            await drain(daemon)
            return parse_metrics(text)

        series = asyncio.run(scrape())
        ledger = ledger_series(session.simulator)
        assert series["repro_requests_total"] == 0
        assert series["repro_cache_hits_total"] == ledger["hits"] > 0
        assert series["repro_energy_joules_total"] == ledger["energy_so_far_j"]
        assert series['repro_disk_dwell_seconds{disk="2"}'] == (
            ledger["disk_dwell_s"][2]
        )


def test_render_lists_every_disk_and_gauge():
    daemon = ServeDaemon(ServeConfig(session_params=SESSION))
    daemon.session.feed(small_trace(30))
    text = render_metrics(
        daemon.metrics, daemon.session.simulator, daemon._gauges()
    )
    series = parse_metrics(text)
    without_gauges = parse_metrics(text, gauges=False)
    assert set(series) - set(without_gauges) == {
        f"repro_{name}" for name in GAUGES
    }
    for disk in range(SESSION["num_disks"]):
        assert f'repro_disk_energy_joules{{disk="{disk}"}}' in series
        assert f'repro_disk_dwell_seconds{{disk="{disk}"}}' in series
    assert series["repro_served_requests"] == 30
    assert series["repro_cache_misses_total"] > 0
