"""Tests for the campaign executor: parallelism, caching, fault policy.

The fault-injection point functions are module-level so they stay
picklable under any multiprocessing start method; cross-process state
(fail once, then succeed) goes through marker files.
"""

import json
import time
from functools import partial
from pathlib import Path

import pytest

from repro.campaign.executor import (
    PARENT_WORKER,
    PointTask,
    RetryPolicy,
    run_points,
)
from repro.campaign.journal import RunJournal, load_journal
from repro.campaign.store import ResultStore, result_key, workload_token
from repro.errors import CampaignError
from repro.sim.runner import run_simulation
from repro.sim.sweep import grid_sweep
from repro.traces.synthetic import (
    SyntheticTraceConfig,
    generate_synthetic_trace_columnar,
)

AXES = {
    "policy": ["lru", "fifo", "clock", "arc"],
    "dpm": ["practical", "oracle"],
    "cache_blocks": [32, 64],
}  # 16 grid points


@pytest.fixture(scope="module")
def trace():
    return generate_synthetic_trace_columnar(
        SyntheticTraceConfig(num_requests=400, num_disks=3, seed=29)
    ).to_requests()


def fail_once(workload, marker=None, fail_on=None, **run_kwargs):
    """Raises the first time it sees ``fail_on``; succeeds on retry."""
    if run_kwargs.get("policy") == fail_on and not Path(marker).exists():
        Path(marker).write_text("tripped")
        raise RuntimeError("injected failure")
    return run_simulation(workload, **run_kwargs)


def always_fail(workload, fail_on=None, **run_kwargs):
    if run_kwargs.get("policy") == fail_on:
        raise RuntimeError("permanent failure")
    return run_simulation(workload, **run_kwargs)


def hang(workload, hang_on=None, **run_kwargs):
    if run_kwargs.get("policy") == hang_on:
        time.sleep(60)
    return run_simulation(workload, **run_kwargs)


def counted_trace(count_file, write_ratio=0.0, fail_marker=None):
    """Trace factory that logs each call as one line of ``count_file``
    (a file, so calls made in worker processes count too). With
    ``fail_marker`` set, the first call creates it and raises."""
    with open(count_file, "a") as log:
        log.write(f"{write_ratio}\n")
    if fail_marker is not None and not Path(fail_marker).exists():
        Path(fail_marker).write_text("tripped")
        raise RuntimeError("injected generation failure")
    return generate_synthetic_trace_columnar(
        SyntheticTraceConfig(
            num_requests=300, num_disks=3, write_ratio=write_ratio, seed=5
        )
    )


def factory_calls(count_file) -> list[str]:
    path = Path(count_file)
    return path.read_text().split() if path.exists() else []


def factory_tasks(ratios, policies):
    """Workload-major grid: every policy for one ratio, then the next."""
    return [
        PointTask(
            index=i,
            params={"write_ratio": ratio, "policy": policy},
            run_kwargs={"policy": policy, "num_disks": 3, "cache_blocks": 32},
            trace_args={"write_ratio": ratio},
        )
        for i, (ratio, policy) in enumerate(
            (r, p) for r in ratios for p in policies
        )
    ]


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


class TestParallelMatchesSerial:
    def test_identical_records_on_fixed_grid(self, trace):
        serial = grid_sweep(trace, axes=AXES, num_disks=3, cache_blocks=64)
        parallel = grid_sweep(
            trace, axes=AXES, num_disks=3, cache_blocks=64, workers=4
        )
        assert len(serial.points) == 16
        assert parallel.records() == serial.records()

    def test_parallel_trace_factory(self):
        def factory(write_ratio):
            return generate_synthetic_trace_columnar(
                SyntheticTraceConfig(
                    num_requests=200, num_disks=3,
                    write_ratio=write_ratio, seed=5,
                )
            ).to_requests()

        axes = {"write_ratio": [0.0, 0.5], "policy": ["lru", "fifo"]}
        serial = grid_sweep(
            factory, axes=axes, trace_params=["write_ratio"],
            num_disks=3, cache_blocks=32,
        )
        parallel = grid_sweep(
            factory, axes=axes, trace_params=["write_ratio"],
            num_disks=3, cache_blocks=32, workers=2,
        )
        assert parallel.records() == serial.records()

    def test_shared_memory_columnar_fanout_identical(self):
        """A columnar workload is published once into POSIX shared
        memory and mapped by every worker; the results must be
        bit-identical to the in-process serial loop."""
        columnar = generate_synthetic_trace_columnar(
            SyntheticTraceConfig(num_requests=2000, num_disks=3, seed=61)
        )
        tasks = policy_tasks(["lru", "fifo", "clock", "arc", "pa-lru", "opg"])
        serial = run_points(tasks, trace=columnar, workers=1)
        shared = run_points(tasks, trace=columnar, workers=2)
        assert [o.task.params for o in shared] == [
            o.task.params for o in serial
        ]
        for a, b in zip(shared, serial):
            assert a.status == b.status == "ok"
            assert a.result.to_dict() == b.result.to_dict()


class TestGeneratedTraceReuse:
    """A worker, or the serial loop, generates a workload once per run
    of consecutive points with equal ``trace_args``."""

    RATIOS = [0.0, 0.5]
    POLICIES = ["lru", "fifo", "clock"]

    def test_serial_generates_once_per_run_of_equal_args(self, tmp_path):
        count_file = tmp_path / "calls"
        factory = partial(counted_trace, str(count_file))
        outcomes = run_points(
            factory_tasks(self.RATIOS, self.POLICIES), trace=factory
        )
        assert all(o.ok for o in outcomes)
        assert factory_calls(count_file) == ["0.0", "0.5"]

    def test_alternating_args_regenerate(self, tmp_path):
        count_file = tmp_path / "calls"
        tasks = factory_tasks(self.RATIOS, self.POLICIES)
        tasks.sort(key=lambda t: (t.params["policy"], t.index))
        run_points(tasks, trace=partial(counted_trace, str(count_file)))
        assert len(factory_calls(count_file)) == len(tasks)

    def test_failed_generation_is_not_reused(self, tmp_path):
        count_file = tmp_path / "calls"
        factory = partial(
            counted_trace,
            str(count_file),
            fail_marker=str(tmp_path / "tripped"),
        )
        outcomes = run_points(
            factory_tasks([0.5], ["lru", "fifo"]),
            trace=factory,
            on_error="record",
        )
        assert [o.status for o in outcomes] == ["failed", "ok"]
        assert "injected generation failure" in outcomes[0].error
        assert factory_calls(count_file) == ["0.5", "0.5"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_results_and_keys_match_fresh_generation(self, workers, tmp_path):
        count_file = tmp_path / "calls"
        factory = partial(counted_trace, str(count_file))
        tasks = factory_tasks(self.RATIOS, self.POLICIES)
        outcomes = run_points(
            tasks,
            trace=factory,
            workers=workers,
            store=ResultStore(tmp_path / "store"),
        )
        for task, outcome in zip(tasks, outcomes):
            fresh = run_simulation(
                counted_trace(str(tmp_path / "fresh"), **task.trace_args),
                **task.run_kwargs,
            )
            assert json.dumps(
                outcome.result.to_dict(), sort_keys=True
            ) == json.dumps(fresh.to_dict(), sort_keys=True)
            assert outcome.key == result_key(
                workload_token(factory, task.trace_args), task.run_kwargs
            )
        # each worker meets each ratio in one contiguous run
        calls = factory_calls(count_file)
        assert sorted(set(calls)) == ["0.0", "0.5"]
        assert len(calls) <= workers * len(self.RATIOS)


class TestResultCaching:
    def test_second_run_is_all_cache_hits(self, trace, tmp_path):
        store = ResultStore(tmp_path / "store")
        first = grid_sweep(
            trace, axes=AXES, num_disks=3, cache_blocks=64,
            workers=4, store=store,
        )
        assert len(store) == 16

        journal_path = tmp_path / "resume.jsonl"
        with RunJournal(journal_path) as journal:
            second = grid_sweep(
                trace, axes=AXES, num_disks=3, cache_blocks=64,
                workers=4, store=store, journal=journal,
            )
        assert second.records() == first.records()
        points = [
            e for e in load_journal(journal_path) if e["event"] == "point"
        ]
        assert len(points) == 16
        assert all(e["cache_hit"] for e in points)
        assert all(e["worker"] == PARENT_WORKER for e in points)

    def test_cache_spans_serial_and_parallel(self, trace, tmp_path):
        store = ResultStore(tmp_path / "store")
        parallel = grid_sweep(
            trace, axes={"policy": ["lru", "fifo"]}, num_disks=3,
            cache_blocks=64, workers=2, store=store,
        )
        with RunJournal(tmp_path / "j.jsonl") as journal:
            serial = grid_sweep(
                trace, axes={"policy": ["lru", "fifo"]}, num_disks=3,
                cache_blocks=64, store=store, journal=journal,
            )
        assert serial.records() == parallel.records()
        points = [
            e for e in load_journal(tmp_path / "j.jsonl")
            if e["event"] == "point"
        ]
        assert all(e["cache_hit"] for e in points)

    def test_different_grid_point_misses(self, trace, tmp_path):
        store = ResultStore(tmp_path / "store")
        grid_sweep(
            trace, axes={"policy": ["lru"]}, num_disks=3,
            cache_blocks=64, store=store,
        )
        grid_sweep(
            trace, axes={"policy": ["lru"]}, num_disks=3,
            cache_blocks=128, store=store,
        )
        assert len(store) == 2


class TestFaultPolicy:
    def test_injected_failure_retried_then_reported(self, trace, tmp_path):
        marker = tmp_path / "marker"
        tasks = policy_tasks(
            ["lru", "fifo", "clock"], marker=str(marker), fail_on="fifo"
        )
        with RunJournal(tmp_path / "j.jsonl") as journal:
            outcomes = run_points(
                tasks, trace=trace, point_fn=fail_once, workers=2,
                retry=RetryPolicy(retries=1), journal=journal,
                on_error="record",
            )
        assert [o.status for o in outcomes] == ["ok", "ok", "ok"]
        fifo = outcomes[1]
        assert fifo.task.params["policy"] == "fifo"
        assert fifo.retries == 1
        journaled = [
            e for e in load_journal(tmp_path / "j.jsonl")
            if e["event"] == "point" and e["params"]["policy"] == "fifo"
        ]
        assert journaled[0]["retries"] == 1

    def test_permanent_failure_does_not_abort_campaign(self, trace):
        tasks = policy_tasks(["lru", "fifo", "clock"], fail_on="fifo")
        outcomes = run_points(
            tasks, trace=trace, point_fn=always_fail, workers=2,
            retry=RetryPolicy(retries=1), on_error="record",
        )
        assert [o.status for o in outcomes] == ["ok", "failed", "ok"]
        assert "permanent failure" in outcomes[1].error
        assert outcomes[1].retries == 1

    def test_permanent_failure_raises_when_asked(self, trace):
        tasks = policy_tasks(["lru", "fifo"], fail_on="fifo")
        with pytest.raises(CampaignError, match="failed after retries"):
            run_points(
                tasks, trace=trace, point_fn=always_fail, workers=2,
                on_error="raise",
            )

    def test_serial_failure_propagates_original_exception(self, trace):
        tasks = policy_tasks(["lru", "fifo"], fail_on="fifo")
        with pytest.raises(RuntimeError, match="permanent failure"):
            run_points(
                tasks, trace=trace, point_fn=always_fail, workers=1,
                on_error="raise",
            )

    def test_serial_records_failures_without_aborting(self, trace):
        tasks = policy_tasks(["lru", "fifo", "clock"], fail_on="fifo")
        outcomes = run_points(
            tasks, trace=trace, point_fn=always_fail, workers=1,
            on_error="record",
        )
        assert [o.status for o in outcomes] == ["ok", "failed", "ok"]

    def test_hanging_point_is_killed_not_fatal(self, trace):
        tasks = policy_tasks(["lru", "fifo", "clock"], hang_on="fifo")
        started = time.perf_counter()
        outcomes = run_points(
            tasks, trace=trace, point_fn=hang, workers=2,
            retry=RetryPolicy(timeout_s=1.0), on_error="record",
        )
        elapsed = time.perf_counter() - started
        assert [o.status for o in outcomes] == ["ok", "timeout", "ok"]
        assert "killed" in outcomes[1].error
        assert elapsed < 30  # nowhere near the 60 s sleep

    def test_retry_policy_validation(self):
        with pytest.raises(CampaignError):
            RetryPolicy(timeout_s=0.0)
        with pytest.raises(CampaignError):
            RetryPolicy(retries=-1)

    def test_run_points_validation(self, trace):
        with pytest.raises(CampaignError):
            run_points([], trace=trace, workers=0)
        with pytest.raises(CampaignError):
            run_points([], trace=trace, on_error="explode")


class TestTelemetry:
    def test_journal_records_workers_and_timing(self, trace, tmp_path):
        with RunJournal(tmp_path / "j.jsonl") as journal:
            grid_sweep(
                trace, axes={"policy": ["lru", "fifo", "clock", "arc"]},
                num_disks=3, cache_blocks=32, workers=2, journal=journal,
            )
        events = load_journal(tmp_path / "j.jsonl")
        header = events[0]
        assert header["event"] == "campaign"
        assert header["points"] == 4
        assert header["workers"] == 2
        points = [e for e in events if e["event"] == "point"]
        assert len(points) == 4
        assert {e["worker"] for e in points} <= {0, 1}
        assert all(e["wall_time_s"] > 0 for e in points)
        assert all(not e["cache_hit"] for e in points)
