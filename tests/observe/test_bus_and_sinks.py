"""Unit tests for the event bus and the pluggable sinks."""

import json

import pytest

from repro.campaign.journal import RunJournal, load_journal
from repro.observe import (
    EVENT_TYPES,
    CacheHit,
    CacheMiss,
    DiskService,
    EventBus,
    EventSink,
    Insert,
    JSONLSink,
    MetricsSink,
    RequestComplete,
    RingBufferSink,
    StateDwell,
)


def events_sample():
    return [
        CacheHit(0.0, 0, 10, False),
        CacheMiss(1.0, 0, 11, False),
        Insert(1.0, 0, 11, 1),
        StateDwell(2.0, 0, 1, 5.0, 12.5),
        DiskService(2.0, 0, 2.0, 0.01, 0.135, False, 1),
        RequestComplete(2.0, 0, 0.011, False, 1),
    ]


class TestEventBus:
    def test_fans_out_in_attachment_order(self):
        seen = []

        class Recorder(EventSink):
            def __init__(self, tag):
                self.tag = tag

            def handle(self, event):
                seen.append((self.tag, event.kind))

        bus = EventBus()
        bus.attach(Recorder("a"))
        bus.attach(Recorder("b"))
        bus(CacheHit(0.0, 0, 1, False))
        assert seen == [("a", "cache_hit"), ("b", "cache_hit")]

    def test_adapts_bare_callables(self):
        got = []
        bus = EventBus()
        bus.attach(got.append)
        bus(CacheHit(0.0, 0, 1, False))
        assert got[0].kind == "cache_hit"

    def test_nested_bus_as_sink(self):
        inner = EventBus()
        ring = inner.attach(RingBufferSink())
        outer = EventBus()
        outer.attach(inner)
        outer(CacheMiss(0.0, 1, 2, True))
        assert len(ring) == 1

    def test_detach_and_len(self):
        bus = EventBus()
        ring = bus.attach(RingBufferSink())
        assert len(bus) == 1
        bus.detach(ring)
        assert len(bus) == 0

    def test_context_manager_closes_sinks(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with EventBus() as bus:
            sink = bus.attach(JSONLSink(path))
            bus(CacheHit(0.0, 0, 1, False))
        assert sink._fh is None
        assert path.read_text().count("\n") == 1


class TestRingBufferSink:
    def test_keeps_most_recent(self):
        ring = RingBufferSink(capacity=3)
        for e in events_sample():
            ring.handle(e)
        assert len(ring) == 3
        assert [e.kind for e in ring.events] == [
            "state_dwell", "disk_service", "request_complete",
        ]

    def test_of_kind_and_clear(self):
        ring = RingBufferSink()
        for e in events_sample():
            ring.handle(e)
        assert len(ring.of_kind("cache_hit")) == 1
        ring.clear()
        assert len(ring) == 0


class TestJSONLSink:
    def test_writes_one_json_object_per_event(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JSONLSink(path)
        for e in events_sample():
            sink.handle(e)
        sink.close()
        lines = path.read_text().splitlines()
        assert len(lines) == len(events_sample())
        assert sink.events_written == len(lines)
        first = json.loads(lines[0])
        assert first == {
            "kind": "cache_hit", "time": 0.0,
            "disk": 0, "block": 10, "is_write": False,
        }
        # every kind tag written is a registered event type
        assert all(json.loads(ln)["kind"] in EVENT_TYPES for ln in lines)

    def test_piggybacks_on_a_campaign_journal(self, tmp_path):
        journal = RunJournal(tmp_path / "journal.jsonl")
        journal.write("campaign", name="x")
        sink = JSONLSink(journal)
        for e in events_sample():
            sink.handle(e)
        sink.close()  # must NOT close the journal
        journal.write("point", index=0)
        journal.close()
        records = load_journal(tmp_path / "journal.jsonl")
        kinds = [r["event"] for r in records]
        assert kinds[0] == "campaign" and kinds[-1] == "point"
        traces = [r for r in records if r["event"] == "trace"]
        assert len(traces) == len(events_sample())
        assert traces[0]["kind"] == "cache_hit"


class TestMetricsSink:
    def test_counts_and_energy(self):
        sink = MetricsSink()
        for e in events_sample():
            sink.handle(e)
        assert sink.hits == 1 and sink.misses == 1
        assert sink.requests == 1
        assert sink.disk_energy_j[0] == pytest.approx(12.5 + 0.135)
        assert sink.total_energy_j == pytest.approx(12.635)
        assert sink.disk_dwell_s[0] == pytest.approx(5.0)

    def test_as_dict_is_json_safe_and_sorted(self):
        sink = MetricsSink()
        for e in events_sample():
            sink.handle(e)
        snapshot = sink.as_dict()
        json.dumps(snapshot)  # must not raise
        assert list(snapshot["events"]) == sorted(snapshot["events"])
        assert snapshot["mean_latency_s"] == pytest.approx(0.011)


class TestSinkIsolation:
    """Regression: a raising sink must not abort the simulation."""

    class Exploder(EventSink):
        def handle(self, event):
            raise RuntimeError("boom")

    def test_raising_sink_is_isolated_and_warned_once(self):
        good = []
        bus = EventBus()
        bus.attach(self.Exploder())
        bus.attach(good.append)
        with pytest.warns(RuntimeWarning, match="boom"):
            bus(CacheHit(0.0, 0, 1, False))
        # subsequent dispatches: no further warning, stream keeps flowing
        import warnings as warnings_mod

        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            bus(CacheHit(1.0, 0, 2, False))
        assert [e.kind for e in good] == ["cache_hit", "cache_hit"]
        (count,) = bus.sink_errors().values()
        assert count == 2

    def test_sinks_after_the_raising_one_still_see_the_event(self):
        order = []
        bus = EventBus()
        bus.attach(lambda e: order.append("first"))
        bus.attach(self.Exploder())
        bus.attach(lambda e: order.append("last"))
        with pytest.warns(RuntimeWarning):
            bus(CacheHit(0.0, 0, 1, False))
        assert order == ["first", "last"]

    def test_invariant_violation_still_propagates(self):
        from repro.errors import InvariantViolation

        class Checker(EventSink):
            def handle(self, event):
                raise InvariantViolation("stream is inconsistent")

        bus = EventBus()
        bus.attach(Checker())
        with pytest.raises(InvariantViolation):
            bus(CacheHit(0.0, 0, 1, False))


class TestLiveSnapshot:
    """``/metrics`` is read from the simulator, not from a sink."""

    def test_finalize_aggregate_is_unchanged_by_live_tracking(self):
        """as_dict keys stay exactly what trace_metrics always carried,
        now that the sink keeps no live ``/metrics`` view."""
        sink = MetricsSink()
        for e in events_sample():
            sink.handle(e)
        assert set(sink.as_dict()) == {
            "events", "disk_energy_j", "total_energy_j", "spinups",
            "spindowns", "hits", "misses", "evictions", "dirty_flushes",
            "requests", "mean_latency_s", "epochs",
        }


class TestEventVocabulary:
    """Golden vocabulary: kind tags are load-bearing in journals."""

    def test_golden_kind_tags(self):
        assert sorted(EVENT_TYPES) == [
            "cache_hit",
            "cache_miss",
            "dirty_flush",
            "disk_finalized",
            "disk_reclassified",
            "disk_service",
            "disk_spin_down",
            "disk_spin_up",
            "epoch_rollover",
            "evict",
            "fault_injected",
            "insert",
            "log_append",
            "log_flush",
            "recovery_replay",
            "request_complete",
            "simulation_start",
            "speed_change",
            "spin_up_failed",
            "state_dwell",
        ]
