"""In-process daemon tests: lifecycle, lockstep, HTTP, backpressure.

These drive a real :class:`ServeDaemon` on an ephemeral loopback port
inside the test's own event loop — no subprocesses (the CI serve-smoke
job covers that end to end). Determinism comes from explicit-time
requests: with every arrival pinned, the daemon's simulated timeline
is a pure function of the request stream, so results can be compared
bit-for-bit against the batch engine.
"""

import asyncio
import gc
import json
import weakref

import pytest

from repro import run_simulation
from repro.serve.checkpoint import checkpoint_path, latest_checkpoint
from repro.serve.daemon import ServeConfig, ServeDaemon, result_digest
from repro.serve.protocol import format_request, parse_response_line
from repro.traces.record import IORequest
from repro.traces.synthetic import (
    SyntheticTraceConfig,
    generate_synthetic_trace_columnar,
)

#: Far above any wall-derived stamp a test could produce.
BASE = 1_000_000.0

SESSION = {
    "policy": "lru",
    "num_disks": 3,
    "cache_blocks": 128,
    "dpm": "practical",
}


def small_trace(n=120, seed=5):
    trace = generate_synthetic_trace_columnar(
        SyntheticTraceConfig(num_requests=n, num_disks=3, seed=seed)
    ).to_requests()
    return [
        IORequest(
            time=BASE + r.time,
            disk=r.disk,
            block=r.block,
            nblocks=r.nblocks,
            is_write=r.is_write,
        )
        for r in trace
    ]


def run(coro):
    return asyncio.run(coro)


async def start_daemon(**overrides):
    params = overrides.pop("session_params", dict(SESSION))
    daemon = ServeDaemon(
        ServeConfig(session_params=params, **overrides), out=_DevNull()
    )
    await daemon.start()
    return daemon


class _DevNull:
    def write(self, _):
        pass

    def flush(self):
        pass


async def tcp_exchange(port, lines):
    """Send protocol lines serially; returns parsed responses."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    responses = []
    try:
        for line in lines:
            writer.write(line.encode() + b"\n")
            await writer.drain()
            raw = await asyncio.wait_for(reader.readline(), timeout=10)
            responses.append(parse_response_line(raw.decode().strip()))
    finally:
        writer.close()
    return responses


async def drain(daemon):
    daemon.request_drain()
    await asyncio.wait_for(daemon.wait_closed(), timeout=30)
    return daemon.result


async def http_exchange(port, method, path, body=b""):
    """One HTTP exchange; returns ``(status, body text)``."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: x\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    writer.write(head.encode() + body)
    await writer.drain()
    raw = await asyncio.wait_for(reader.read(), timeout=10)
    writer.close()
    header, _, payload = raw.decode().partition("\r\n\r\n")
    status = int(header.split()[1])
    return status, payload


def req_lines(trace):
    return [
        format_request(f"r{i}", r.disk, r.block, r.nblocks, r.is_write, r.time)
        for i, r in enumerate(trace)
    ]


class TestLockstepService:
    def test_explicit_time_run_matches_the_batch_engine(self):
        trace = small_trace()

        async def scenario():
            daemon = await start_daemon()
            responses = await tcp_exchange(daemon.tcp_port, req_lines(trace))
            assert all(r.verb == "OK" for r in responses)
            assert [r.sim_time for r in responses] == [r.time for r in trace]
            return await drain(daemon), responses

        live_result, responses = run(scenario())
        batch = run_simulation(trace, "lru", num_disks=3, cache_blocks=128)
        assert result_digest(live_result) == result_digest(batch)
        # client-visible latencies are the engine's, verbatim
        assert responses[0].value == pytest.approx(
            batch.response.mean_s * 0 + responses[0].value
        )

    def test_ping_and_malformed_lines(self):
        async def scenario():
            daemon = await start_daemon()
            responses = await tcp_exchange(
                daemon.tcp_port,
                ["PING", "REQ bad 0", f"REQ r1 0 1 1 R t={BASE}"],
            )
            await drain(daemon)
            return responses

        pong, err, ok = run(scenario())
        assert pong.verb == "PONG"
        assert err.verb == "ERR"
        assert ok.verb == "OK"

    def test_explicit_time_behind_watermark_is_an_error(self):
        async def scenario():
            daemon = await start_daemon()
            responses = await tcp_exchange(
                daemon.tcp_port,
                [
                    f"REQ r1 0 1 1 R t={BASE + 10}",
                    f"REQ r2 0 2 1 R t={BASE + 5}",  # runs backwards
                ],
            )
            await drain(daemon)
            return responses

        ok, err = run(scenario())
        assert ok.verb == "OK" and err.verb == "ERR"
        assert "behind" in err.message

    def test_non_finite_explicit_time_leaves_the_clock_alone(self):
        async def scenario():
            daemon = await start_daemon()
            responses = await tcp_exchange(
                daemon.tcp_port,
                ["REQ b 0 2 1 R t=inf", "REQ c 0 3 1 R t=5"],
            )
            await drain(daemon)
            return responses

        refused, ok = run(scenario())
        assert refused.verb == "ERR" and "finite" in refused.message
        assert ok.verb == "OK" and ok.sim_time == 5.0

    def test_wall_stamped_requests_are_served(self):
        async def scenario():
            daemon = await start_daemon(time_dilation=100.0)
            responses = await tcp_exchange(
                daemon.tcp_port,
                ["REQ a 0 10 1 R", "REQ b 1 20 1 W", "REQ c 2 30 4 R"],
            )
            result = await drain(daemon)
            return responses, result

        responses, result = run(scenario())
        assert [r.verb for r in responses] == ["OK"] * 3
        times = [r.sim_time for r in responses]
        assert times == sorted(times)
        # block-granular: two 1-block requests plus one 4-block request
        assert result.cache_accesses == 6

    def test_drain_rejects_new_requests_and_reports_counts(self):
        trace = small_trace(20)

        async def scenario():
            daemon = await start_daemon()
            await tcp_exchange(daemon.tcp_port, req_lines(trace))
            daemon.request_drain()
            late = await tcp_exchange(
                daemon.tcp_port, [f"REQ late 0 1 1 R t={BASE + 999}"]
            )
            await asyncio.wait_for(daemon.wait_closed(), timeout=30)
            return daemon, late

        daemon, late = run(scenario())
        assert late[0].verb == "RETRY"
        assert daemon.session.served == 20
        assert daemon.queue.accepted_total == 20
        assert daemon.exit_code == 0


class TestDrainedDaemonIsFreed:
    def test_without_the_cyclic_gc(self):
        """Nothing but reference counting is needed to free a drained
        daemon: no server callback, task or coroutine frame keeps it
        (and its simulator) alive in a reference cycle."""
        trace = small_trace(40)

        async def scenario():
            daemon = await start_daemon()
            await tcp_exchange(daemon.tcp_port, req_lines(trace[:20]))
            await http_exchange(
                daemon.http_port,
                "POST",
                "/ingest",
                "\n".join(req_lines(trace[20:])).encode(),
            )
            await http_exchange(daemon.http_port, "GET", "/metrics")
            await drain(daemon)
            assert daemon.session.served == 40
            return weakref.ref(daemon.session.simulator)

        gc.collect()
        gc.disable()
        try:
            simulator = run(scenario())
            assert simulator() is None
        finally:
            gc.enable()


class TestBackpressure:
    def test_overload_answers_retry_and_nothing_is_lost(self):
        async def flood(port, n):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            for i in range(n):  # pipelined: no ack await between sends
                writer.write(
                    format_request(f"f{i}", 0, i, 1, False).encode() + b"\n"
                )
            await writer.drain()
            verbs = []
            for _ in range(n):
                raw = await asyncio.wait_for(reader.readline(), timeout=30)
                verbs.append(parse_response_line(raw.decode().strip()).verb)
            writer.close()
            return verbs

        async def scenario():
            daemon = await start_daemon(
                queue_capacity=4, batch_max=2, feed_delay_s=0.01
            )
            verbs = await flood(daemon.tcp_port, 40)
            await drain(daemon)
            return daemon, verbs

        daemon, verbs = run(scenario())
        assert verbs.count("RETRY") > 0
        assert verbs.count("OK") == daemon.session.served
        assert daemon.queue.rejected_total == verbs.count("RETRY")
        snap = daemon.metrics.snapshot()
        assert snap["ingest_rejected"] == verbs.count("RETRY")
        assert snap["ingest_accepted"] == verbs.count("OK")


class TestHttpSurface:
    def test_healthz_metrics_ingest_and_404(self):
        trace = small_trace(30)

        async def scenario():
            daemon = await start_daemon()
            body = "\n".join(req_lines(trace)).encode()
            ingest = await http_exchange(
                daemon.http_port, "POST", "/ingest", body
            )
            health = await http_exchange(daemon.http_port, "GET", "/healthz")
            metrics = await http_exchange(daemon.http_port, "GET", "/metrics")
            missing = await http_exchange(daemon.http_port, "GET", "/nope")
            await drain(daemon)
            return ingest, health, metrics, missing

        ingest, health, metrics, missing = run(scenario())
        assert ingest[0] == 200
        verbs = [ln.split()[0] for ln in ingest[1].splitlines()]
        assert verbs == ["OK"] * 30
        assert health[0] == 200
        assert json.loads(health[1])["served"] == 30
        assert metrics[0] == 200
        assert "repro_requests_total 30" in metrics[1]
        assert 'repro_disk_dwell_seconds{disk="0"}' in metrics[1]
        assert missing[0] == 404

    def test_checkpoint_endpoint_and_restore_continuation(self, tmp_path):
        trace = small_trace(80)
        head, tail = trace[:50], trace[50:]

        async def original():
            daemon = await start_daemon(checkpoint_dir=str(tmp_path))
            await tcp_exchange(daemon.tcp_port, req_lines(head))
            status, payload = await http_exchange(
                daemon.http_port, "POST", "/checkpoint"
            )
            assert status == 200
            assert json.loads(payload)["served"] == 50
            await tcp_exchange(
                daemon.tcp_port,
                [
                    format_request(
                        f"t{i}", r.disk, r.block, r.nblocks, r.is_write,
                        r.time,
                    )
                    for i, r in enumerate(tail)
                ],
            )
            return await drain(daemon)

        uninterrupted = run(original())
        # drain wrote a final checkpoint at 80; restore from the
        # mid-run one the HTTP endpoint took
        assert latest_checkpoint(tmp_path).name.endswith("000080.json")
        cp_file = checkpoint_path(tmp_path, 50)
        assert cp_file.exists()

        async def restored():
            daemon = await start_daemon(restore_path=str(cp_file))
            assert daemon.replayed == 50
            await tcp_exchange(
                daemon.tcp_port,
                [
                    format_request(
                        f"t{i}", r.disk, r.block, r.nblocks, r.is_write,
                        r.time,
                    )
                    for i, r in enumerate(tail)
                ],
            )
            return await drain(daemon)

        continued = run(restored())
        assert result_digest(continued) == result_digest(uninterrupted)

    def test_metrics_continue_across_a_restore(self, tmp_path):
        trace = small_trace(90)
        head, tail = trace[:60], trace[60:]
        session = {**SESSION, "policy": "pa-lru", "write_policy": "wtdu"}

        def series(text):
            gauges = ("repro_sim_time", "repro_served", "repro_replayed",
                      "repro_queue", "repro_draining", "repro_time_dilation",
                      "repro_uptime")
            return {
                name: float(value)
                for name, value in (
                    line.rsplit(" ", 1)
                    for line in text.splitlines()
                    if not line.startswith("#")
                )
                if not name.startswith(gauges)
            }

        async def serve(restore_path=None):
            if restore_path is None:
                daemon = await start_daemon(
                    checkpoint_dir=str(tmp_path), session_params=session
                )
                await tcp_exchange(daemon.tcp_port, req_lines(head))
                await http_exchange(daemon.http_port, "POST", "/checkpoint")
            else:
                daemon = await start_daemon(restore_path=restore_path)
            await tcp_exchange(daemon.tcp_port, req_lines(tail))
            _, metrics = await http_exchange(daemon.http_port, "GET", "/metrics")
            await drain(daemon)
            return series(metrics)

        uninterrupted = run(serve())
        restored = run(serve(str(checkpoint_path(tmp_path, 60))))
        assert restored["repro_requests_total"] == 90
        for name in (
            "repro_cache_hits_total",
            "repro_cache_misses_total",
            "repro_cache_evictions_total",
            "repro_disk_spinups_total",
            "repro_energy_joules_total",
            'repro_request_latency_seconds{quantile="0.95"}',
            'repro_disk_energy_joules{disk="0"}',
        ):
            assert name in restored
        assert restored == uninterrupted

    def test_checkpoint_endpoint_without_dir_is_a_conflict(self):
        async def scenario():
            daemon = await start_daemon()
            status, _ = await http_exchange(
                daemon.http_port, "POST", "/checkpoint"
            )
            await drain(daemon)
            return status

        assert run(scenario()) == 409

    def test_periodic_checkpoints(self, tmp_path):
        trace = small_trace(100)

        async def scenario():
            daemon = await start_daemon(
                checkpoint_dir=str(tmp_path), checkpoint_every=30
            )
            await tcp_exchange(daemon.tcp_port, req_lines(trace))
            await drain(daemon)

        run(scenario())
        names = sorted(p.name for p in tmp_path.iterdir())
        # every-30 checkpoints land at batch boundaries; the final
        # drain checkpoint is always written at the full count
        assert names[-1] == "checkpoint-000000000100.json"
        assert len(names) >= 3
