"""``/metrics`` from the simulator's ledgers and response samples.

The daemon's session runs probe-free, so its engine series come from
``CacheStats``, the write policy's ``disk_writes``, each disk's
``EnergyAccount`` and the PA classifier, not from events, and its
request and latency series from the session's response samples, folded
into a histogram at scrape time. These tests pin those ledgers to what
a :class:`MetricsSink` counts from the reference loop's event stream,
pin the latency series to the exact samples, and check that a restored
daemon's ``/metrics`` continues — also from a checkpoint written while
the series still came from events, and from one that carries no
metrics.
"""

import asyncio
import math
from pathlib import Path

import numpy as np
import pytest

from repro.core.histogram import IntervalHistogram
from repro.observe.bus import EventBus
from repro.observe.sinks import MetricsSink
from repro.serve.checkpoint import load_checkpoint, save_checkpoint
from repro.serve.daemon import ServeConfig, ServeDaemon
from repro.serve.metrics import (
    GAUGES,
    LATENCY_EDGES,
    LatencySeries,
    ledger_series,
    parse_metrics,
    render_metrics,
)
from repro.sim import build_session
from repro.traces.synthetic import generate_synthetic_trace_columnar
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
    assert ledger["hit_ratio"] == sink.hits / (sink.hits + sink.misses)
    close = {"rel": 1e-12, "abs": 0.0}
    assert ledger["energy_so_far_j"] == pytest.approx(
        sink.total_energy_j, **close
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
            trace = generate_synthetic_trace_columnar(TRACE_CONFIG).to_requests()
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
        assert sink.hits and sink.misses and sink.total_energy_j > 0
        simulator.finish(trace[-1].time + simulator.config.trace_tail_s)
        _assert_ledgers_match_events(simulator, sink)


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
        """``metrics: null`` restores the ingest counters at zero, but
        the engine, request and latency series still cover the restored
        prefix."""
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
        assert series["repro_requests_total"] == 60
        assert series["repro_ingest_accepted_total"] == 0
        assert series["repro_cache_hits_total"] == ledger["hits"] > 0
        assert series["repro_energy_joules_total"] == ledger["energy_so_far_j"]
        assert series['repro_disk_dwell_seconds{disk="2"}'] == (
            ledger["disk_dwell_s"][2]
        )

    def test_checkpoint_without_metrics_continues_the_other_series(
        self, tmp_path
    ):
        """From a ``metrics: null`` checkpoint every non-gauge series
        but the ingest counters continues: the restored daemon scrapes
        what a daemon whose prefix was fed outside its ingest queue
        does."""
        trace = small_trace(90)
        session = build_session(record_requests=True, **SESSION)
        session.feed(trace[:60])
        path = save_checkpoint(session.checkpoint(), tmp_path / "cp.json")

        async def serve(restore_path=None):
            if restore_path is None:
                daemon = await start_daemon()
                daemon.session.feed(trace[:60])
            else:
                daemon = await start_daemon(restore_path=restore_path)
            await tcp_exchange(daemon.tcp_port, req_lines(trace[60:]))
            _, text = await http_exchange(daemon.http_port, "GET", "/metrics")
            await drain(daemon)
            return parse_metrics(text, gauges=False)

        uninterrupted = asyncio.run(serve())
        restored = asyncio.run(serve(str(path)))
        assert restored["repro_requests_total"] == 90
        assert restored["repro_ingest_accepted_total"] == 30
        assert restored == uninterrupted


class TestLatencySeries:
    """The request and latency series, folded from response samples."""

    QUANTILES = (
        (0.5, "p50_latency_s"),
        (0.95, "p95_latency_s"),
        (0.99, "p99_latency_s"),
    )

    @staticmethod
    def _session_and_trace(policy="lru"):
        trace = generate_synthetic_trace_columnar(TRACE_CONFIG).to_requests()
        session = build_session(**{**COMMON_KWARGS, "policy": policy})
        return session, trace[:900]

    @pytest.mark.parametrize("policy", ["lru", "pa-lru"])
    def test_quantiles_within_one_bin_of_the_nearest_rank(self, policy):
        session, trace = self._session_and_trace(policy)
        session.feed(trace)
        series = LatencySeries().fold(session.simulator)
        samples = session.simulator.responses_since(0)
        n = len(samples)
        assert series["requests"] == n == len(trace)
        ratio = max(hi / lo for lo, hi in zip(LATENCY_EDGES, LATENCY_EDGES[1:]))
        ordered = sorted(samples)
        for p, key in self.QUANTILES:
            nearest_rank = ordered[math.ceil(p * n) - 1]
            assert nearest_rank <= series[key] < nearest_rank * ratio, key
        left_to_right = float(np.cumsum(samples)[-1])
        assert series["mean_latency_s"] == left_to_right / n

    def test_empty_session_reads_zero(self):
        session, _ = self._session_and_trace()
        series = LatencySeries().fold(session.simulator)
        assert series == {
            "requests": 0, "mean_latency_s": 0.0, "p50_latency_s": 0.0,
            "p95_latency_s": 0.0, "p99_latency_s": 0.0,
        }

    def test_scraping_every_batch_equals_scraping_once(self):
        session, trace = self._session_and_trace()
        every_batch = LatencySeries()
        for start in range(0, len(trace), 32):
            session.feed(trace[start:start + 32])
            folded = every_batch.fold(session.simulator)
        assert folded == LatencySeries().fold(session.simulator)
        assert folded["requests"] == len(trace)

    def test_feeding_folds_nothing_and_a_scrape_folds_once(
        self, monkeypatch
    ):
        calls = []
        add_batch = IntervalHistogram.add_batch

        def counted(histogram, intervals):
            calls.append(len(intervals))
            return add_batch(histogram, intervals)

        monkeypatch.setattr(IntervalHistogram, "add_batch", counted)
        trace = small_trace(90)

        async def scenario():
            daemon = await start_daemon()
            seen = []
            for part in (trace[:50], trace[50:]):
                await tcp_exchange(daemon.tcp_port, req_lines(part))
                seen.append(list(calls))
                await http_exchange(daemon.http_port, "GET", "/metrics")
                seen.append(list(calls))
            await http_exchange(daemon.http_port, "GET", "/metrics")
            seen.append(list(calls))
            await drain(daemon)
            return seen

        assert asyncio.run(scenario()) == [
            [], [50], [50], [50, 40], [50, 40],
        ]


def test_render_lists_every_disk_and_gauge():
    daemon = ServeDaemon(ServeConfig(session_params=SESSION))
    daemon.session.feed(small_trace(30))
    text = render_metrics(
        daemon.session.simulator,
        daemon.latency,
        daemon.ingest_series(),
        daemon._gauges(),
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
