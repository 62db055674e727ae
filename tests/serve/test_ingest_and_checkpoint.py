"""The bounded ingest queue and the checkpoint file format."""

import asyncio
import io
import json
import re

import pytest

from repro.errors import ConfigurationError, ServeError
from repro.serve.checkpoint import (
    checkpoint_path,
    latest_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.serve.ingest import (
    MAX_RETRY_AFTER_S,
    MIN_RETRY_AFTER_S,
    IngestQueue,
)
from repro.serve.daemon import ServeConfig, ServeDaemon
from repro.sim import build_session
from repro.traces.record import IORequest


class TestIngestQueue:
    def test_fifo_order_across_batches(self):
        queue = IngestQueue(10)
        for i in range(7):
            accepted, _ = queue.offer(i)
            assert accepted
        assert queue.take_batch(3) == [0, 1, 2]
        queue.offer(7)
        assert queue.take_batch(100) == [3, 4, 5, 6, 7]
        assert len(queue) == 0

    def test_overflow_rejects_at_the_door(self):
        queue = IngestQueue(2)
        assert queue.offer("a")[0] and queue.offer("b")[0]
        accepted, after_s = queue.offer("c")
        assert not accepted
        assert MIN_RETRY_AFTER_S <= after_s <= MAX_RETRY_AFTER_S
        assert queue.accepted_total == 2 and queue.rejected_total == 1
        # rejected item was dropped, not buffered
        assert len(queue) == 2

    def test_drain_frees_capacity(self):
        queue = IngestQueue(2)
        queue.offer("a"), queue.offer("b")
        queue.take_batch(1)
        assert queue.offer("c")[0]

    def test_backoff_tracks_observed_drain_rate(self):
        queue = IngestQueue(1000)
        for i in range(1000):
            queue.offer(i)
        slow, fast = IngestQueue(1000), IngestQueue(1000)
        for i in range(1000):
            slow.offer(i), fast.offer(i)
        for _ in range(50):
            slow.note_drain(10, 1.0)  # 100 ms per request
            fast.note_drain(10, 1e-4)  # 10 µs per request
        assert slow.retry_after_s() > fast.retry_after_s()
        assert slow.retry_after_s() == MAX_RETRY_AFTER_S  # clamped

    def test_wait_for_items_wakes_on_offer(self):
        async def scenario():
            queue = IngestQueue(4)
            waiter = asyncio.ensure_future(queue.wait_for_items())
            await asyncio.sleep(0)
            assert not waiter.done()
            queue.offer("x")
            await asyncio.wait_for(waiter, timeout=1.0)

        asyncio.run(scenario())

    def test_rejects_degenerate_capacity(self):
        with pytest.raises(ConfigurationError):
            IngestQueue(0)


def _checkpoint(served=3, **overrides):
    """A real session's checkpoint after ``served`` requests."""
    params = {"policy": "lru", "num_disks": 2, "cache_blocks": 64, **overrides}
    session = build_session(record_requests=True, **params)
    session.feed(
        [
            IORequest(time=float(i), disk=i % params["num_disks"], block=i,
                      nblocks=1, is_write=bool(i % 2))
            for i in range(served)
        ]
    )
    return session.checkpoint()


def _restore(path):
    """Boot a daemon from ``path`` (restore runs before any listener)."""
    return ServeDaemon(ServeConfig(restore_path=str(path)), out=io.StringIO())


class TestCheckpointFiles:
    def test_save_load_round_trip(self, tmp_path):
        original = _checkpoint()
        path = save_checkpoint(original, tmp_path / "cp.json")
        loaded = load_checkpoint(path)
        assert loaded == original

    def test_atomic_write_leaves_no_temp_file(self, tmp_path):
        save_checkpoint(_checkpoint(), tmp_path / "cp.json")
        assert [p.name for p in tmp_path.iterdir()] == ["cp.json"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ServeError, match="no checkpoint"):
            load_checkpoint(tmp_path / "nope.json")

    def test_corrupt_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{truncated")
        with pytest.raises(ServeError, match="corrupt"):
            load_checkpoint(bad)

    def test_wrong_format_and_version(self, tmp_path):
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ServeError, match="not a serve checkpoint"):
            load_checkpoint(other)
        doc = {"format": "repro-serve-checkpoint", "version": 99}
        vers = tmp_path / "vers.json"
        vers.write_text(json.dumps(doc))
        with pytest.raises(ServeError, match="version"):
            load_checkpoint(vers)

    def test_version_1_request_log_is_refused_by_name(self, tmp_path):
        old = tmp_path / "v1.json"
        old.write_text(
            json.dumps(
                {
                    "format": "repro-serve-checkpoint",
                    "version": 1,
                    "params": {"policy": "lru", "num_disks": 2,
                               "cache_blocks": 64},
                    "watermark": 1.0,
                    "served": 1,
                    "requests": [[1.0, 0, 1, 1, 0]],
                }
            )
        )
        with pytest.raises(ServeError, match="version 1") as info:
            _restore(old)
        assert str(old) in str(info.value)

    def _doctored(self, tmp_path, edit, **overrides):
        """A checkpoint file whose document ``edit`` has tampered with."""
        path = save_checkpoint(_checkpoint(40, **overrides), tmp_path / "cp.json")
        document = json.loads(path.read_text())
        edit(document)
        path.write_text(json.dumps(document))
        return path

    def _refused(self, path, reason):
        with pytest.raises(ServeError, match=re.escape(str(path))) as info:
            _restore(path)
        assert reason in str(info.value)
        assert not isinstance(info.value.__cause__, KeyError)

    def test_state_for_fewer_disks_than_params_is_refused(self, tmp_path):
        def more_disks(document):
            document["params"]["num_disks"] = 4

        path = self._doctored(tmp_path, more_disks, num_disks=3)
        self._refused(path, "3 disks where the session parameters build 4")

    def test_policy_state_of_another_policy_is_refused(self, tmp_path):
        def plain_lru(document):
            document["params"]["policy"] = "lru"

        path = self._doctored(tmp_path, plain_lru, policy="pa-lru")
        self._refused(path, "PowerAwarePolicy state where the session "
                            "parameters build a LRUPolicy")

    def test_missing_component_is_refused(self, tmp_path):
        def drop_write_policy(document):
            del document["state"]["simulator"]["write_policy"]

        path = self._doctored(tmp_path, drop_write_policy)
        self._refused(path, "missing 'write_policy'")

    def test_corrupt_column_is_refused(self, tmp_path):
        def truncate_blocks(document):
            cache = document["state"]["simulator"]["cache"]
            cache["blocks"] = cache["blocks"][:-4]

        path = self._doctored(tmp_path, truncate_blocks)
        self._refused(path, "malformed StorageCache state")

    def test_malformed_metrics_are_refused(self, tmp_path):
        def bad_metrics(document):
            document["metrics"] = {"type": "MetricsSink", "hits": 1}

        path = self._doctored(tmp_path, bad_metrics)
        self._refused(path, "malformed MetricsSink state")

    def test_metrics_of_another_type_are_refused(self, tmp_path):
        def foreign_metrics(document):
            document["metrics"] = {"type": "CacheStats", "ingest_accepted": 1}

        path = self._doctored(tmp_path, foreign_metrics)
        self._refused(path, "metrics hold 'CacheStats' where the daemon "
                            "restores MetricsSink state")

    def test_latest_checkpoint_orders_by_served(self, tmp_path):
        assert latest_checkpoint(tmp_path) is None
        for served in (5, 1200, 40):
            save_checkpoint(
                _checkpoint(3), checkpoint_path(tmp_path, served)
            )
        latest = latest_checkpoint(tmp_path)
        assert latest is not None
        assert latest.name == "checkpoint-000000001200.json"
