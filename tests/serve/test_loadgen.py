"""The asyncio load generator against an in-process daemon."""

import asyncio

import pytest

from repro.errors import ConfigurationError
from repro.serve.daemon import ServeConfig, ServeDaemon
from repro.serve.loadgen import LoadConfig, generate_workload, run_load
from repro.sim.results import ResponseStats


class _DevNull:
    def write(self, _):
        pass

    def flush(self):
        pass


SESSION = {
    "policy": "lru",
    "num_disks": 4,
    "cache_blocks": 256,
    "dpm": "practical",
}


def _drive(load_config_kwargs, **daemon_overrides):
    async def scenario():
        daemon = ServeDaemon(
            ServeConfig(session_params=dict(SESSION), **daemon_overrides),
            out=_DevNull(),
        )
        await daemon.start()
        report = await run_load(
            LoadConfig(port=daemon.tcp_port, **load_config_kwargs)
        )
        daemon.request_drain()
        await asyncio.wait_for(daemon.wait_closed(), timeout=30)
        return daemon, report

    return asyncio.run(scenario())


class TestWorkloadGeneration:
    def test_deterministic_given_seed(self):
        config = LoadConfig(requests=50, seed=9)
        assert generate_workload(config) == generate_workload(config)

    def test_explicit_base_offsets_every_stamp(self):
        config = LoadConfig(
            requests=20, seed=9, users=1, explicit_time_base=5000.0
        )
        items = generate_workload(config)
        stamps = [item[5] for item in items]
        assert all(t >= 5000.0 for t in stamps)
        assert stamps == sorted(stamps)

    def test_oltp_workload_is_available(self):
        items = generate_workload(
            LoadConfig(requests=200, workload="oltp", num_disks=4)
        )
        assert len(items) == 200

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LoadConfig(users=0)
        with pytest.raises(ConfigurationError):
            LoadConfig(workload="nope")
        with pytest.raises(ConfigurationError):
            LoadConfig(users=2, explicit_time_base=1.0)


class TestRunLoad:
    def test_wall_mode_acknowledges_everything(self):
        daemon, report = _drive(
            {"users": 4, "requests": 200, "num_disks": 4, "seed": 3}
        )
        assert report.sent == report.acked == 200
        assert report.errors == 0
        assert daemon.session.served == 200
        assert report.rps > 0
        assert report.p99_latency_s >= report.p50_latency_s >= 0.0

    def test_quantiles_are_exact_over_the_acked_latencies(self):
        """Every request is acked once, and an ``OK`` line carries its
        latency's ``repr``, so the acked latencies are the session's
        response samples in another order."""
        daemon, report = _drive(
            {"users": 4, "requests": 200, "num_disks": 4, "seed": 3}
        )
        assert report.acked == 200
        exact = ResponseStats.from_samples(
            daemon.session.simulator.responses_since(0)
        )
        assert (
            report.p50_latency_s,
            report.p95_latency_s,
            report.p99_latency_s,
        ) == (exact.median_s, exact.p95_s, exact.p99_s)

    def test_explicit_mode_is_deterministic_across_runs(self):
        kwargs = {
            "users": 1,
            "requests": 100,
            "seed": 7,
            "num_disks": 4,
            "explicit_time_base": 1_000_000.0,
        }
        daemon_a, report_a = _drive(dict(kwargs))
        daemon_b, report_b = _drive(dict(kwargs))
        assert report_a.acked == report_b.acked == 100
        from repro.serve.daemon import result_digest

        assert result_digest(daemon_a.result) == result_digest(
            daemon_b.result
        )

    def test_backpressure_retries_until_served(self):
        daemon, report = _drive(
            {"users": 6, "requests": 120, "num_disks": 4, "seed": 1},
            queue_capacity=2,
            batch_max=2,
            feed_delay_s=0.002,
        )
        assert report.retried > 0
        assert report.errors == 0
        assert report.acked == 120
        assert daemon.queue.rejected_total == report.retried
