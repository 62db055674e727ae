"""The campaign point executor.

Runs a list of :class:`PointTask` grid points either serially (in
process, in grid order — exactly what the historical ``grid_sweep``
loop did) or fanned out over a pool of ``multiprocessing`` workers.
Either way the executor consults an optional
:class:`~repro.campaign.store.ResultStore` before computing a point,
persists fresh results back, journals per-point telemetry, and applies
a per-point timeout/retry policy so one pathological configuration can
neither hang nor abort a whole campaign.

The worker pool is deliberately not ``multiprocessing.Pool``: enforcing
a *hard* per-point timeout requires terminating the stuck worker
process and respawning it, which ``Pool`` cannot do for a single task.
Each worker is one long-lived process holding the workload trace,
receiving ``(index, trace_args, run_kwargs)`` tuples over a pipe and
replying with the pickled :class:`~repro.sim.results.SimulationResult`.
Results are therefore bit-identical to a serial run: the same
deterministic simulation executes, only in another process.

Generated workloads are built once per run of consecutive points with
equal factory arguments, in each worker and in the serial loop (see
:class:`_WorkloadSource`): grids are workload-major, so those runs are
long, and a simulation never mutates its trace.

Fixed columnar workloads are not pickled into the workers at all:
the parent publishes the columns once into POSIX shared memory
(:meth:`~repro.traces.columnar.ColumnarTrace.share`) and ships only
the small :class:`~repro.traces.columnar.SharedTraceDescriptor`; each
worker (including respawns after a timeout) maps the same buffers
zero-copy. The parent owns the segment and unlinks it when the
campaign ends.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
import warnings
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait
from typing import Any, Callable, Sequence

from repro.errors import CampaignError
from repro.sim.results import SimulationResult
from repro.sim.runner import run_simulation
from repro.traces.columnar import ColumnarTrace, SharedTraceDescriptor
from repro.traces.record import IORequest

from repro.campaign.journal import RunJournal
from repro.campaign.store import (
    ResultStore,
    result_key,
    trace_args_token,
    workload_token,
)

#: Computes one grid point: ``point_fn(workload, **run_kwargs)``.
PointFn = Callable[..., SimulationResult]

#: Worker id recorded for points the parent served from the store.
PARENT_WORKER = -1

#: Consecutive worker deaths (pool-wide, reset by any clean reply)
#: after which the parallel path concludes the environment is hostile
#: to subprocesses and falls back to serial execution in the parent.
SERIAL_FALLBACK_DEATHS = 3

#: Times one point may take its worker down before it is settled as
#: failed rather than requeued (a point that reliably kills workers
#: would otherwise starve the pool). Before any worker has replied
#: cleanly the deaths may be the environment's, so a point at the cap
#: is held until the next worker outcome: a clean reply settles it
#: failed, another death completes the :data:`SERIAL_FALLBACK_DEATHS`
#: streak, whichever order the deaths are read in. A point with no
#: other point left to hear from is settled at once, so a poisoned
#: point never reaches the serial pass on its own deaths.
MAX_DEATHS_PER_TASK = 2


@dataclass(frozen=True)
class PointTask:
    """One grid point to execute."""

    index: int
    params: dict[str, Any]
    run_kwargs: dict[str, Any]
    #: Factory arguments when the workload is generated per point;
    #: ``None`` means "use the shared fixed trace".
    trace_args: dict[str, Any] | None = None


@dataclass(frozen=True)
class RetryPolicy:
    """Per-point fault policy.

    ``timeout_s`` is enforced only in parallel mode (enforcing it
    serially would require killing our own process; serial campaigns
    that set it get a ``RuntimeWarning`` and a journal entry instead of
    silence); ``retries`` is the number of *additional* attempts after
    the first. ``backoff_s`` spaces retries out exponentially: retry
    ``n`` (1-based) waits ``backoff_s * 2**(n-1)`` seconds, capped at
    ``backoff_max_s``; 0 (the default) retries immediately. Worker
    *deaths* are not charged against ``retries`` — a crashed process
    says nothing about the point, so the point is requeued (up to
    :data:`MAX_DEATHS_PER_TASK` deaths) with its retry budget intact.
    """

    timeout_s: float | None = None
    retries: int = 0
    backoff_s: float = 0.0
    backoff_max_s: float = 60.0

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise CampaignError(f"timeout_s must be > 0, got {self.timeout_s}")
        if self.retries < 0:
            raise CampaignError(f"retries must be >= 0, got {self.retries}")
        if self.backoff_s < 0:
            raise CampaignError(f"backoff_s must be >= 0, got {self.backoff_s}")
        if self.backoff_max_s <= 0:
            raise CampaignError(
                f"backoff_max_s must be > 0, got {self.backoff_max_s}"
            )

    def retry_delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based), in seconds."""
        if self.backoff_s <= 0.0:
            return 0.0
        return min(self.backoff_s * (2.0 ** (attempt - 1)), self.backoff_max_s)


@dataclass
class PointOutcome:
    """What happened to one grid point."""

    task: PointTask
    status: str  # "ok" | "failed" | "timeout"
    result: SimulationResult | None = None
    cache_hit: bool = False
    wall_time_s: float = 0.0
    worker: int = PARENT_WORKER
    retries: int = 0
    key: str | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def journal_fields(self) -> dict[str, Any]:
        return {
            "index": self.task.index,
            "params": self.task.params,
            "status": self.status,
            "cache_hit": self.cache_hit,
            "wall_time_s": round(self.wall_time_s, 6),
            "worker": self.worker,
            "retries": self.retries,
            "key": self.key,
            "error": self.error,
        }


class _WorkloadSource:
    """Hands each point its workload: the fixed trace, or the factory's
    output for the point's ``trace_args``.

    The last generated workload is kept and handed out again while
    consecutive points ask for the same arguments, by the canonical
    form that keys the result store, so a reused trace is exactly the
    one a fresh generation would build. Sharing is safe because a
    simulation never mutates its trace. The previous workload is
    dropped before the factory runs, so a generation that raises is
    never reused and the old trace can be freed before the new one is
    built.
    """

    def __init__(self, trace: Sequence[IORequest] | Callable) -> None:
        self.trace = trace
        self._token: str | None = None
        self._workload = None

    def get(self, trace_args: dict[str, Any] | None):
        if trace_args is None:
            return self.trace
        token = trace_args_token(trace_args)
        if token != self._token:
            self._token = self._workload = None
            self._workload = self.trace(**trace_args)
            self._token = token
        return self._workload


def _worker_main(
    conn,
    worker_id: int,
    trace: Sequence[IORequest] | SharedTraceDescriptor | Callable,
    point_fn: PointFn,
) -> None:
    """Worker loop: receive a point, simulate, reply. ``None`` stops."""
    attached: ColumnarTrace | None = None
    if isinstance(trace, SharedTraceDescriptor):
        trace = attached = ColumnarTrace.from_shared(trace)
    source = _WorkloadSource(trace)
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return
            if message is None:
                return
            index, trace_args, run_kwargs = message
            started = time.perf_counter()
            try:
                result = point_fn(source.get(trace_args), **run_kwargs)
                reply = (index, "ok", result, time.perf_counter() - started)
            except Exception:
                reply = (
                    index,
                    "error",
                    traceback.format_exc(limit=20),
                    time.perf_counter() - started,
                )
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                return
    finally:
        if attached is not None:
            attached.close()


class _Worker:
    """A long-lived simulation process plus its parent-side pipe end."""

    def __init__(self, ctx, worker_id, trace, point_fn) -> None:
        self.id = worker_id
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn, worker_id, trace, point_fn),
            daemon=True,
            name=f"campaign-worker-{worker_id}",
        )
        self.process.start()
        child_conn.close()

    def submit(self, task: PointTask) -> None:
        self.conn.send((task.index, task.trace_args, task.run_kwargs))

    def stop(self) -> None:
        """Polite shutdown; used for idle workers."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=5.0)
        if self.process.is_alive():
            self.kill()
        self.conn.close()

    def kill(self) -> None:
        """Hard shutdown; used for timed-out or dead workers."""
        self.process.terminate()
        self.process.join(timeout=5.0)
        if self.process.is_alive():  # pragma: no cover - stubborn child
            self.process.kill()
            self.process.join(timeout=5.0)
        self.conn.close()


@dataclass
class _Attempt:
    """Book-keeping for one in-flight point."""

    task: PointTask
    worker: _Worker
    tries: int  # attempts already failed before this one
    deaths: int = 0  # workers this point has taken down so far
    started: float = field(default_factory=time.perf_counter)

    def deadline(self, timeout_s: float | None) -> float | None:
        return None if timeout_s is None else self.started + timeout_s


def run_points(
    tasks: Sequence[PointTask],
    *,
    trace: Sequence[IORequest] | Callable,
    point_fn: PointFn = run_simulation,
    workers: int = 1,
    store: ResultStore | None = None,
    journal: RunJournal | None = None,
    retry: RetryPolicy | None = None,
    on_error: str = "raise",
) -> list[PointOutcome]:
    """Execute grid points, returning outcomes in task order.

    Args:
        tasks: The grid points; indices must be unique.
        trace: Shared fixed workload, or a factory called per point
            with the task's ``trace_args``.
        point_fn: Simulation entry point (defaults to
            :func:`~repro.sim.runner.run_simulation`). Must be
            picklable (module-level) when ``workers > 1``.
        workers: ``1`` runs serially in-process and in grid order,
            reproducing the classic sweep loop exactly; ``> 1`` fans
            out over that many processes.
        store: Optional result cache, consulted before any compute.
        journal: Optional JSONL telemetry sink.
        retry: Timeout/retry policy (default: no timeout, no retries).
        on_error: ``"raise"`` propagates the first exhausted failure
            (:class:`CampaignError`); ``"record"`` reports it in the
            outcome and keeps the campaign going.

    Returns:
        One :class:`PointOutcome` per task, ordered by task position.
    """
    if on_error not in ("raise", "record"):
        raise CampaignError(f"on_error must be 'raise' or 'record', not {on_error!r}")
    if workers < 1:
        raise CampaignError(f"workers must be >= 1, got {workers}")
    retry = retry or RetryPolicy()
    if workers == 1 and retry.timeout_s is not None:
        message = (
            f"RetryPolicy.timeout_s={retry.timeout_s} is only enforced in "
            "parallel mode (workers > 1); this serial campaign cannot time "
            "points out"
        )
        warnings.warn(message, RuntimeWarning, stacklevel=2)
        if journal is not None:
            journal.write("warning", message=message)

    outcomes: dict[int, PointOutcome] = {}
    pending: list[PointTask] = []
    for task in tasks:
        key = None
        if store is not None:
            key = result_key(
                workload_token(trace, task.trace_args), task.run_kwargs
            )
            cached = store.get(key)
            if cached is not None:
                outcomes[task.index] = PointOutcome(
                    task=task,
                    status="ok",
                    result=cached,
                    cache_hit=True,
                    key=key,
                )
                continue
        pending.append(task)

    if journal is not None:
        journal.write(
            "campaign",
            points=len(tasks),
            cached=len(outcomes),
            workers=workers,
            timeout_s=retry.timeout_s,
            retries=retry.retries,
            store=str(store.root) if store is not None else None,
        )
        # cache hits are final the moment they are discovered
        for index in sorted(outcomes):
            journal.write("point", **outcomes[index].journal_fields())

    def finalize(outcome: PointOutcome) -> None:
        outcomes[outcome.task.index] = outcome
        if store is not None and outcome.ok and not outcome.cache_hit:
            store.put(outcome.key, outcome.result, params=outcome.task.params)
        if journal is not None:
            journal.write("point", **outcome.journal_fields())

    def key_of(task: PointTask) -> str | None:
        if store is None:
            return None
        return result_key(workload_token(trace, task.trace_args), task.run_kwargs)

    if workers == 1:
        _run_serial(pending, trace, point_fn, retry, on_error, key_of, finalize)
    else:
        _run_parallel(
            pending, trace, point_fn, workers, retry, on_error, key_of,
            finalize, journal,
        )

    return [outcomes[task.index] for task in tasks]


def _run_serial(pending, trace, point_fn, retry, on_error, key_of, finalize):
    """In-process execution, grid order preserved."""
    source = _WorkloadSource(trace)
    for task in pending:
        tries = 0
        while True:
            started = time.perf_counter()
            try:
                result = point_fn(
                    source.get(task.trace_args), **task.run_kwargs
                )
            except Exception as exc:
                if tries < retry.retries:
                    tries += 1
                    delay = retry.retry_delay(tries)
                    if delay > 0.0:
                        time.sleep(delay)
                    continue
                if on_error == "raise":
                    raise
                finalize(
                    PointOutcome(
                        task=task,
                        status="failed",
                        wall_time_s=time.perf_counter() - started,
                        retries=tries,
                        key=key_of(task),
                        error=f"{type(exc).__name__}: {exc}",
                    )
                )
                break
            finalize(
                PointOutcome(
                    task=task,
                    status="ok",
                    result=result,
                    wall_time_s=time.perf_counter() - started,
                    worker=0,
                    retries=tries,
                    key=key_of(task),
                )
            )
            break


def _run_parallel(
    pending, trace, point_fn, workers, retry, on_error, key_of, finalize,
    journal=None,
):
    """Fan pending points out over a pool of worker processes.

    Queue entries are ``(task, tries, deaths, not_before)``: ``tries``
    counts genuine point failures (charged against the retry budget),
    ``deaths`` counts workers the point took down (charged against
    :data:`MAX_DEATHS_PER_TASK` instead), and ``not_before`` is the
    earliest monotonic instant the entry may be dispatched (retry
    backoff). When :data:`SERIAL_FALLBACK_DEATHS` workers die in a row
    without a single clean reply, the pool is abandoned — everything
    still unfinished runs serially in the parent, where a death would
    at least be *our* crash and therefore debuggable. Until some
    worker has replied cleanly, a point that reaches its death cap
    while other points are queued or in flight is held (``held``)
    rather than settled: settling it then would make the verdict
    depend on whether its respawned worker died before another
    worker's death was read.
    """
    ctx = multiprocessing.get_context()
    pool_size = min(workers, len(pending))
    if pool_size == 0:
        return
    worker_trace = trace
    shm = None
    pool: list[_Worker] = []
    idle: deque[_Worker] = deque()
    queue: deque[tuple[PointTask, int, int, float]] = deque(
        (t, 0, 0, 0.0) for t in pending
    )
    inflight: dict[int, _Attempt] = {}  # worker id -> attempt
    failures: list[PointOutcome] = []
    consecutive_deaths = 0
    replied = False  # has any worker replied cleanly yet?
    # a point at its death cap awaiting the next outcome (at most one:
    # any further death completes the fallback streak)
    held: tuple[PointTask, int, PointOutcome] | None = None
    fallback: list[tuple[PointTask, int]] | None = None

    def respawn(worker: _Worker) -> _Worker:
        worker.kill()
        fresh = _Worker(ctx, worker.id, worker_trace, point_fn)
        pool[pool.index(worker)] = fresh
        return fresh

    def settle(outcome: PointOutcome) -> None:
        finalize(outcome)
        if not outcome.ok:
            failures.append(outcome)

    def retry_or_settle(attempt: _Attempt, status: str, error: str) -> None:
        if attempt.tries < retry.retries:
            tries = attempt.tries + 1
            not_before = time.perf_counter() + retry.retry_delay(tries)
            queue.appendleft((attempt.task, tries, attempt.deaths, not_before))
        else:
            settle(
                PointOutcome(
                    task=attempt.task,
                    status=status,
                    wall_time_s=time.perf_counter() - attempt.started,
                    worker=attempt.worker.id,
                    retries=attempt.tries,
                    key=key_of(attempt.task),
                    error=error,
                ),
            )

    def next_ready() -> tuple[PointTask, int, int, float] | None:
        """Pop the first queue entry whose backoff has elapsed."""
        now = time.perf_counter()
        for _ in range(len(queue)):
            entry = queue.popleft()
            if entry[3] <= now:
                return entry
            queue.append(entry)
        return None

    # Everything that allocates external resources — the shared-memory
    # segment and the worker processes — happens inside the try, so a
    # KeyboardInterrupt or spawn failure at any point still unlinks the
    # segment and reaps whatever part of the pool exists.
    try:
        # Ship a fixed columnar workload through shared memory: every
        # worker (and every respawn) maps the same buffers instead of
        # receiving its own pickled copy of the trace.
        if isinstance(trace, ColumnarTrace):
            try:
                worker_trace, shm = trace.share()
            except (ImportError, OSError, ValueError):
                worker_trace = trace  # no shared memory here: pickle as before
        for i in range(pool_size):
            pool.append(_Worker(ctx, i, worker_trace, point_fn))
        idle.extend(pool)

        while queue or inflight:
            while queue and idle:
                entry = next_ready()
                if entry is None:
                    break
                task, tries, deaths, _ = entry
                worker = idle.popleft()
                worker.submit(task)
                inflight[worker.id] = _Attempt(task, worker, tries, deaths)

            now = time.perf_counter()
            waits = [
                a.deadline(retry.timeout_s) - now
                for a in inflight.values()
                if a.deadline(retry.timeout_s) is not None
            ]
            if queue and idle:
                # everything queued is backing off: wake when the
                # soonest entry becomes dispatchable
                waits.append(min(entry[3] for entry in queue) - now)
            wait_for = max(0.0, min(waits)) if waits else None
            if not inflight:
                if wait_for:
                    time.sleep(wait_for)
                continue
            ready = connection_wait(
                [a.worker.conn for a in inflight.values()], timeout=wait_for
            )

            for conn in ready:
                if fallback is not None:
                    break  # pool abandoned mid-drain
                attempt = next(
                    a for a in inflight.values() if a.worker.conn is conn
                )
                worker = attempt.worker
                try:
                    _index, status, payload, elapsed = conn.recv()
                except (EOFError, OSError):
                    # worker died mid-point (crash, OOM-kill, ...); the
                    # death says nothing about the point, so requeue it
                    # without touching its retry budget — unless this
                    # point keeps killing workers.
                    del inflight[worker.id]
                    consecutive_deaths += 1
                    deaths = attempt.deaths + 1
                    if consecutive_deaths >= SERIAL_FALLBACK_DEATHS:
                        # The whole environment is killing workers, not
                        # this point: rescue everything unfinished (this
                        # point included) for the serial pass; the
                        # workers still in flight are killed on the
                        # way out, not waited for.
                        worker.kill()
                        fallback = sorted(
                            [(t, tr) for t, tr, _, _ in queue]
                            + [(attempt.task, attempt.tries)]
                            + [
                                (a.task, a.tries)
                                for a in inflight.values()
                            ]
                            + ([held[:2]] if held else []),
                            key=lambda item: item[0].index,
                        )
                        queue.clear()
                        held = None
                        continue
                    if deaths >= MAX_DEATHS_PER_TASK:
                        failed = PointOutcome(
                            task=attempt.task,
                            status="failed",
                            wall_time_s=time.perf_counter() - attempt.started,
                            worker=worker.id,
                            retries=attempt.tries,
                            key=key_of(attempt.task),
                            error=(
                                f"worker process died {deaths} times "
                                "on this point"
                            ),
                        )
                        if replied or not (queue or inflight):
                            settle(failed)
                        else:
                            held = (attempt.task, attempt.tries, failed)
                    else:
                        queue.appendleft(
                            (attempt.task, attempt.tries, deaths, 0.0)
                        )
                    idle.append(respawn(worker))
                    continue
                del inflight[worker.id]
                idle.append(worker)
                consecutive_deaths = 0
                replied = True
                if held is not None:
                    settle(held[2])  # the pool runs points: it was poisoned
                    held = None
                if status == "ok":
                    settle(
                        PointOutcome(
                            task=attempt.task,
                            status="ok",
                            result=payload,
                            wall_time_s=elapsed,
                            worker=worker.id,
                            retries=attempt.tries,
                            key=key_of(attempt.task),
                        ),
                    )
                else:
                    retry_or_settle(attempt, "failed", payload)
            if fallback is not None:
                break

            if retry.timeout_s is not None:
                now = time.perf_counter()
                for attempt in [
                    a
                    for a in inflight.values()
                    if now >= a.deadline(retry.timeout_s)
                ]:
                    worker = attempt.worker
                    del inflight[worker.id]
                    idle.append(respawn(worker))
                    retry_or_settle(
                        attempt,
                        "timeout",
                        f"point exceeded {retry.timeout_s}s and was killed",
                    )
        if held is not None:
            # nothing was left to hear from (the others timed out)
            settle(held[2])
    finally:
        # unlink the segment even if reaping a worker raises: the
        # mapping dies with the workers, but the *name* outlives the
        # process unless unlink runs
        try:
            for worker in pool:
                if worker.id in inflight:
                    worker.kill()
                else:
                    worker.stop()
        finally:
            if shm is not None:
                shm.close()
                try:
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass

    if fallback is not None:
        message = (
            f"{SERIAL_FALLBACK_DEATHS} consecutive worker deaths; running "
            f"the remaining {len(fallback)} point(s) serially in the parent"
        )
        warnings.warn(message, RuntimeWarning, stacklevel=3)
        if journal is not None:
            journal.write(
                "serial_fallback",
                remaining=len(fallback),
                consecutive_deaths=SERIAL_FALLBACK_DEATHS,
            )
        _run_serial(
            [task for task, _ in fallback],
            trace, point_fn, retry, on_error, key_of, finalize,
        )

    if failures and on_error == "raise":
        summary = "; ".join(
            f"point {o.task.index} {o.task.params}: {o.status} ({o.error})"
            for o in failures[:5]
        )
        raise CampaignError(
            f"{len(failures)} grid point(s) failed after retries: {summary}"
        )
