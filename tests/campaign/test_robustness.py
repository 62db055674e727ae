"""Campaign robustness: worker-death recovery, backoff, shm hygiene.

Point functions that kill their own process are module-level (picklable
everywhere) and use ``multiprocessing.parent_process()`` to behave only
inside pool workers — the same function runs clean in the parent, which
is exactly what the serial-fallback path relies on.
"""

import multiprocessing
import os
import time
import warnings
from multiprocessing import shared_memory

import pytest

from repro.campaign.executor import (
    MAX_DEATHS_PER_TASK,
    SERIAL_FALLBACK_DEATHS,
    PointTask,
    RetryPolicy,
    run_points,
)
from repro.campaign.journal import RunJournal, load_journal
from repro.errors import CampaignError
from repro.sim.runner import run_simulation
from repro.traces.columnar import ColumnarTrace
from repro.traces.synthetic import (
    SyntheticTraceConfig,
    generate_synthetic_trace_columnar,
)


@pytest.fixture(scope="module")
def trace():
    return generate_synthetic_trace_columnar(
        SyntheticTraceConfig(num_requests=200, num_disks=3, seed=31)
    ).to_requests()


def die_in_worker(workload, **run_kwargs):
    """Kills any pool worker it runs in; runs normally in the parent."""
    if multiprocessing.parent_process() is not None:
        os._exit(3)
    return run_simulation(workload, **run_kwargs)


def die_second_point_late(workload, **run_kwargs):
    """Kills any pool worker it runs in, the second point's (``fifo``)
    only after a pause: the first point's respawned workers die before
    the second point's death is read."""
    if multiprocessing.parent_process() is not None:
        if run_kwargs.get("policy") == "fifo":
            time.sleep(2.0)
        os._exit(3)
    return run_simulation(workload, **run_kwargs)


def die_on_policy(workload, die_on=None, slow_on=None, **run_kwargs):
    """Kills the worker only for one poisoned grid point; in a worker,
    the ``slow_on`` point first pauses."""
    if multiprocessing.parent_process() is not None:
        if run_kwargs.get("policy") == die_on:
            os._exit(3)
        if run_kwargs.get("policy") == slow_on:
            time.sleep(2.0)
    return run_simulation(workload, **run_kwargs)


def always_fail(workload, **run_kwargs):
    raise RuntimeError("injected failure")


def policy_tasks(policies, **extra):
    return [
        PointTask(
            index=i,
            params={"policy": p},
            run_kwargs={
                "policy": p, "num_disks": 3, "cache_blocks": 32, **extra,
            },
        )
        for i, p in enumerate(policies)
    ]


class TestSerialFallback:
    def test_hostile_environment_falls_back_to_serial(self, trace, tmp_path):
        """Every worker dies on every point: after
        SERIAL_FALLBACK_DEATHS consecutive deaths the pool is abandoned
        and ALL points still finish — serially, in the parent."""
        tasks = policy_tasks(["lru", "fifo", "clock"])
        with RunJournal(tmp_path / "j.jsonl") as journal:
            with pytest.warns(RuntimeWarning, match="consecutive worker deaths"):
                outcomes = run_points(
                    tasks, trace=trace, point_fn=die_in_worker,
                    workers=2, journal=journal, on_error="record",
                )
        assert [o.status for o in outcomes] == ["ok", "ok", "ok"]
        events = load_journal(tmp_path / "j.jsonl")
        fallback = [e for e in events if e["event"] == "serial_fallback"]
        assert len(fallback) == 1
        assert fallback[0]["consecutive_deaths"] == SERIAL_FALLBACK_DEATHS
        assert fallback[0]["remaining"] == 3

    def test_hostile_verdict_does_not_depend_on_read_order(
        self, trace, tmp_path
    ):
        """The first point's worker, and its respawns, die while the
        second point's worker still runs: no point may be settled for
        its deaths before any worker replied cleanly, so the streak
        still reaches SERIAL_FALLBACK_DEATHS and every point finishes
        serially."""
        tasks = policy_tasks(["lru", "fifo", "clock"])
        with RunJournal(tmp_path / "j.jsonl") as journal:
            with pytest.warns(RuntimeWarning, match="consecutive worker deaths"):
                outcomes = run_points(
                    tasks, trace=trace, point_fn=die_second_point_late,
                    workers=2, journal=journal, on_error="record",
                )
        assert [o.status for o in outcomes] == ["ok", "ok", "ok"]
        events = load_journal(tmp_path / "j.jsonl")
        fallback = [e for e in events if e["event"] == "serial_fallback"]
        assert len(fallback) == 1
        assert fallback[0]["remaining"] == 3

    def test_poisoned_point_is_settled_not_retried_forever(self, trace):
        """One point reliably kills its worker while the others reply
        cleanly (resetting the consecutive-death counter): the poisoned
        point alone is settled failed after MAX_DEATHS_PER_TASK."""
        tasks = policy_tasks(["lru", "fifo", "clock"], die_on="fifo")
        outcomes = run_points(
            tasks, trace=trace, point_fn=die_on_policy, workers=2,
            on_error="record",
        )
        assert [o.status for o in outcomes] == ["ok", "failed", "ok"]
        assert f"died {MAX_DEATHS_PER_TASK} times" in outcomes[1].error
        # deaths are not charged against the retry budget
        assert outcomes[1].retries == 0

    def test_a_poisoned_first_point_is_settled_not_run_serially(self, trace):
        """The first point kills both its workers before any worker
        replied, while the second still runs: the point is held at
        MAX_DEATHS_PER_TASK until the next outcome, a clean reply,
        settles it failed. It never reaches the serial pass, where it
        would run in the campaign's own process (and, here, succeed)."""
        tasks = policy_tasks(
            ["lru", "fifo", "clock"], die_on="lru", slow_on="fifo"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            outcomes = run_points(
                tasks, trace=trace, point_fn=die_on_policy, workers=2,
                on_error="record",
            )
        assert [o.status for o in outcomes] == ["failed", "ok", "ok"]
        assert f"died {MAX_DEATHS_PER_TASK} times" in outcomes[0].error

    def test_a_lone_poisoned_point_is_settled_not_run_serially(self, trace):
        """With no other point to hear from, a point is settled failed
        at MAX_DEATHS_PER_TASK, as it is once a worker replied."""
        tasks = policy_tasks(["lru"], die_on="lru")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            outcomes = run_points(
                tasks, trace=trace, point_fn=die_on_policy, workers=2,
                on_error="record",
            )
        assert [o.status for o in outcomes] == ["failed"]
        assert f"died {MAX_DEATHS_PER_TASK} times" in outcomes[0].error


class TestSharedMemoryHygiene:
    def _columnar(self):
        return generate_synthetic_trace_columnar(
            SyntheticTraceConfig(num_requests=300, num_disks=3, seed=47)
        )

    def _capture_share(self, monkeypatch):
        captured = {}
        original = ColumnarTrace.share

        def capture(self, *args, **kwargs):
            descriptor, shm = original(self, *args, **kwargs)
            captured["name"] = descriptor.shm_name
            return descriptor, shm

        monkeypatch.setattr(ColumnarTrace, "share", capture)
        return captured

    def _assert_unlinked(self, name):
        try:
            leaked = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            return
        leaked.close()
        pytest.fail(f"shared-memory segment {name} leaked")

    def test_segment_unlinked_on_keyboard_interrupt(self, monkeypatch):
        captured = self._capture_share(monkeypatch)
        monkeypatch.setattr(
            "repro.campaign.executor.connection_wait",
            lambda *a, **k: (_ for _ in ()).throw(KeyboardInterrupt()),
        )
        with pytest.raises(KeyboardInterrupt):
            run_points(
                policy_tasks(["lru", "fifo"]),
                trace=self._columnar(), workers=2,
            )
        assert "name" in captured
        self._assert_unlinked(captured["name"])

    def test_segment_unlinked_on_spawn_failure(self, monkeypatch):
        captured = self._capture_share(monkeypatch)

        def refuse_spawn(*args, **kwargs):
            raise RuntimeError("no processes for you")

        monkeypatch.setattr("repro.campaign.executor._Worker", refuse_spawn)
        with pytest.raises(RuntimeError, match="no processes"):
            run_points(
                policy_tasks(["lru", "fifo"]),
                trace=self._columnar(), workers=2,
            )
        assert "name" in captured
        self._assert_unlinked(captured["name"])


class TestBackoff:
    def test_retry_delay_is_exponential_and_capped(self):
        policy = RetryPolicy(backoff_s=0.1)
        assert policy.retry_delay(1) == pytest.approx(0.1)
        assert policy.retry_delay(2) == pytest.approx(0.2)
        assert policy.retry_delay(3) == pytest.approx(0.4)
        capped = RetryPolicy(backoff_s=0.1, backoff_max_s=0.25)
        assert capped.retry_delay(3) == pytest.approx(0.25)
        assert RetryPolicy().retry_delay(5) == 0.0

    def test_backoff_validation(self):
        with pytest.raises(CampaignError):
            RetryPolicy(backoff_s=-0.1)
        with pytest.raises(CampaignError):
            RetryPolicy(backoff_max_s=0.0)

    def test_serial_retries_sleep_between_attempts(self, trace):
        tasks = policy_tasks(["lru"])
        started = time.perf_counter()
        outcomes = run_points(
            tasks, trace=trace, point_fn=always_fail, workers=1,
            retry=RetryPolicy(retries=2, backoff_s=0.05),
            on_error="record",
        )
        elapsed = time.perf_counter() - started
        assert outcomes[0].status == "failed"
        assert outcomes[0].retries == 2
        assert elapsed >= 0.14  # 0.05 + 0.10 between the three attempts

    def test_parallel_retries_honour_backoff(self, trace):
        tasks = policy_tasks(["lru", "fifo"])
        started = time.perf_counter()
        outcomes = run_points(
            tasks, trace=trace, point_fn=always_fail, workers=2,
            retry=RetryPolicy(retries=1, backoff_s=0.2),
            on_error="record",
        )
        elapsed = time.perf_counter() - started
        assert all(o.status == "failed" for o in outcomes)
        assert elapsed >= 0.2


class TestSerialTimeoutWarning:
    def test_serial_timeout_warns_and_journals_once(self, trace, tmp_path):
        tasks = policy_tasks(["lru"])
        with RunJournal(tmp_path / "j.jsonl") as journal:
            with pytest.warns(RuntimeWarning, match="only enforced in parallel"):
                outcomes = run_points(
                    tasks, trace=trace, workers=1,
                    retry=RetryPolicy(timeout_s=30.0), journal=journal,
                )
        assert outcomes[0].ok
        warnings_logged = [
            e for e in load_journal(tmp_path / "j.jsonl")
            if e["event"] == "warning"
        ]
        assert len(warnings_logged) == 1
        assert "timeout_s=30.0" in warnings_logged[0]["message"]

    def test_parallel_timeout_does_not_warn(self, trace):
        import warnings as warnings_module

        tasks = policy_tasks(["lru", "fifo"])
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error", RuntimeWarning)
            outcomes = run_points(
                tasks, trace=trace, workers=2,
                retry=RetryPolicy(timeout_s=30.0),
            )
        assert all(o.ok for o in outcomes)
