"""The benchmark's four workloads.

Each workload is a :class:`Workload`: an untimed ``prepare`` that makes
its inputs from the seed, a timed ``setup`` and a timed ``run`` (one
unit of the work a user of that path waits for), and the output
checks.  :func:`perfbench.harness.measure` drives them.

* ``oltp_palru`` — batch PA-LRU over the OLTP-like trace (Fig. 6a).
* ``cello_opg`` — OPG over the Cello-like trace, imported from a
  rendered blkparse text file (Fig. 6b).
* ``zoo_sweep`` — the committed ``workload_zoo.json`` campaign.
* ``serve_oltp`` — a restored ``ServeDaemon`` fed over loopback TCP.

The program is imported only through ``repro``'s public modules, and
always by module attribute (``oltp.generate_oltp_trace_columnar``
rather than a bare name), so the traced run's wrappers see the calls.
"""

from __future__ import annotations

import asyncio
import hashlib
import io
import json
import resource
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.campaign import journal as campaign_journal
from repro.campaign import spec as campaign_spec
from repro.campaign import store as campaign_store
from repro.serve import checkpoint as serve_checkpoint
from repro.serve import daemon as serve_daemon
from repro.serve.protocol import (
    VERB_ERR,
    VERB_OK,
    VERB_RETRY,
    format_request,
    parse_response_line,
)
from repro.sim import runner
from repro.traces import cello, ingest, oltp, zoo
from repro.traces.columnar import ColumnarTrace
from repro.units import HOUR

from perfbench.checks import CheckFailed, require, same_digests

#: The committed sweep, relative to the checkout root.
ZOO_SPEC = Path("benchmarks/campaigns/workload_zoo.json")

#: Campaign workers for ``zoo_sweep`` (the 2-vCPU host's ``nproc``).
ZOO_WORKERS = 2

#: Closed-loop window: requests outstanding on the serve connection.
SERVE_WINDOW = 32

#: Give up on a serve request after this many ``RETRY`` answers.
SERVE_MAX_RETRIES = 20


@dataclass(frozen=True)
class Sizes:
    """Input sizes.  :data:`FULL` is the benchmark; :data:`TINY` is the
    self-test pass through the same code."""

    oltp_duration_s: float = 12 * HOUR
    cello_duration_s: float = 1800.0
    #: Rows of the fast-path vs ``handle_request`` differential.
    prefix_rows: int = 20_000
    #: Rows per zoo family for the same differential (below the LIRS
    #: ghost-list cliff, so every policy stays cheap).
    zoo_prefix_rows: int = 2_000
    #: ``None`` runs the committed spec untouched; a number shrinks
    #: every family's duration to it (self-tests only).
    zoo_duration_s: float | None = None
    serve_prefix: int = 40_000
    serve_requests: int = 30_000
    serve_checkpoint_every: int = 20_000
    #: Timed set-ups per run; ``setup_s`` is their median.
    setup_repeats: int = 3


FULL = Sizes()
TINY = Sizes(
    oltp_duration_s=300.0,
    cello_duration_s=20.0,
    prefix_rows=400,
    zoo_prefix_rows=200,
    zoo_duration_s=6.0,
    serve_prefix=600,
    serve_requests=900,
    serve_checkpoint_every=400,
    setup_repeats=2,
)


@dataclass
class Run:
    """One timed unit of work and what it produced."""

    wall_s: float
    #: Simulated requests this unit completed.
    requests: int
    #: The simulation results the unit produced.
    results: list
    #: Result digest of the whole unit (compared across units and runs).
    digest: str
    #: Client-visible latency samples (seconds) of this unit.
    ack_s: list[float]
    attempted: int = 1
    failed: int = 0
    #: Span-index range of the timed region when traced.
    spans: tuple[int, int] = (0, 0)
    #: Workload-specific extras for the per-layer ledger.
    extra: dict = field(default_factory=dict)


class Stopwatch:
    """Times a region and, when traced, the span range inside it."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.wall_s = 0.0
        self.spans = (0, 0)

    def __enter__(self) -> "Stopwatch":
        self._lo = self.tracer.mark() if self.tracer else 0
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self.started
        hi = self.tracer.mark() if self.tracer else 0
        self.spans = (self._lo, hi)


def digest_of(result) -> str:
    return serve_daemon.result_digest(result)


def combined_digest(digests: list[str]) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def peak_rss_mb(children: bool = False) -> float:
    """Peak RSS in MiB of this process (or of its largest child)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def check_fast_path(trace: ColumnarTrace, rows: int, label: str, **params):
    """The columnar fast path and the per-object ``handle_request``
    reference must agree on a ``rows``-long prefix."""
    prefix = trace[:rows]
    fast = runner.run_simulation(prefix, **params)
    reference = runner.run_simulation(prefix.to_requests(), **params)
    require(
        digest_of(fast) == digest_of(reference),
        f"{label}: fast path and handle_request reference disagree "
        f"on a {rows}-row prefix",
    )


class Workload:
    """Base: subclasses fill in the four phases."""

    name = ""
    #: ``True`` when every timed unit needs its own set-up.
    setup_per_run = False
    #: Timed units at least, even when ``--seconds`` is reached sooner.
    min_runs = 2

    def __init__(self, seed: int, sizes: Sizes, workdir: Path) -> None:
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir

    def prepare(self) -> None:
        """Untimed: make the inputs from the seed."""

    def setup(self):
        """Timed set-up; returns the state ``run`` consumes."""
        raise NotImplementedError

    def run(self, state, tracer=None) -> Run:
        raise NotImplementedError

    def check(self, state, runs: list[Run]) -> None:
        """Raise :class:`CheckFailed` on any wrong output."""
        same_digests(self.name, [r.digest for r in runs])

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()


# -- batch ------------------------------------------------------------------


class BatchWorkload(Workload):
    """One ``run_simulation`` call per timed unit."""

    params: dict = {}

    def run(self, state, tracer=None) -> Run:
        with Stopwatch(tracer) as watch:
            result = runner.run_simulation(state, **self.params)
        return Run(
            wall_s=watch.wall_s,
            requests=len(state),
            results=[result],
            digest=digest_of(result),
            ack_s=[watch.wall_s],
            spans=watch.spans,
        )

    def check(self, state, runs: list[Run]) -> None:
        super().check(state, runs)
        check_fast_path(state, self.sizes.prefix_rows, self.name, **self.params)


class OltpPaLru(BatchWorkload):
    name = "oltp_palru"
    params = dict(
        policy="pa-lru",
        num_disks=21,
        cache_blocks=2048,
        write_policy="write-back",
        dpm="practical",
    )

    def setup(self):
        config = oltp.OLTPTraceConfig(
            duration_s=self.sizes.oltp_duration_s, seed=self.seed
        )
        return oltp.generate_oltp_trace_columnar(config)


def render_blkparse(trace: ColumnarTrace, path: Path) -> int:
    """Write ``trace`` as blkparse text: one ``Q`` line per request,
    4 KiB per block (sector = block x 8).  Returns the line count."""
    times, disks, blocks, nblocks, writes = trace.as_lists()
    with open(path, "w") as fh:
        for seq, (t, disk, block, count, is_write) in enumerate(
            zip(times, disks, blocks, nblocks, writes), start=1
        ):
            fh.write(
                f"8,{16 * disk} 0 {seq} {t:.9f} {1000 + disk} Q "
                f"{'W' if is_write else 'R'} {block * 8} + {count * 8} "
                f"[cello]\n"
            )
    return len(times)


class CelloOpg(BatchWorkload):
    name = "cello_opg"
    params = dict(
        policy="opg",
        num_disks=19,
        cache_blocks=4096,
        write_policy="write-back",
        dpm="practical",
        theta=0.0,
    )
    #: Bytes per block in the rendered file (8 sectors).
    block_bytes = 4096

    def prepare(self) -> None:
        config = cello.CelloTraceConfig(
            duration_s=self.sizes.cello_duration_s, seed=self.seed
        )
        self.rendered = cello.generate_cello_trace_columnar(config)
        self.path = self.workdir / "cello.blktrace"
        self.rendered_rows = render_blkparse(self.rendered, self.path)

    def setup(self):
        trace, summary = ingest.import_trace(
            self.path, fmt="blktrace", block_size=self.block_bytes
        )
        self.summary = summary
        return trace

    def check(self, state, runs: list[Run]) -> None:
        check_import(self.summary, state, self.rendered, self.rendered_rows)
        super().check(state, runs)


def check_import(summary, imported, rendered, rendered_rows: int) -> None:
    """The import must keep every rendered row, unchanged."""
    require(
        summary.requests == rendered_rows,
        f"import produced {summary.requests} requests from "
        f"{rendered_rows} rendered rows",
    )
    require(
        summary.skipped == 0, f"import skipped {summary.skipped} lines"
    )
    require(
        len(imported) == rendered_rows
        and np.array_equal(np.asarray(imported.blocks), rendered.blocks)
        and np.array_equal(np.asarray(imported.is_write), rendered.is_write),
        "imported blocks or read/write flags differ from the rendered rows",
    )


# -- campaign ---------------------------------------------------------------


class StampedJournal(campaign_journal.RunJournal):
    """A run journal that also notes when each point's result landed."""

    def __init__(self, path: Path) -> None:
        super().__init__(path)
        self.point_stamps: list[float] = []

    def write(self, event: str, **fields) -> None:
        super().write(event, **fields)
        if event == "point":
            self.point_stamps.append(time.perf_counter())


class ZooSweep(Workload):
    """The committed zoo campaign on a fresh store and journal.

    The timed campaign keeps the spec's own generator seeds: over seeds
    11-15 and 31-35 the seed-dependent LIRS cliff alone spread the
    sweep's ``krps`` by 0.15-0.25 (IQR/median), against 0.07 at a fixed
    seed.  The seed drives the fast-path differential instead: set-up
    generates every family with it, through the generator each point
    calls in its worker.
    """

    name = "zoo_sweep"
    min_runs = 1

    def spec_data(self) -> dict:
        data = json.loads(ZOO_SPEC.read_text())
        if self.sizes.zoo_duration_s is not None:
            per_workload = data["trace"].setdefault("per_workload", {})
            for family in data["trace"]["workload"]:
                overlay = per_workload.setdefault(family, {})
                overlay["duration_s"] = self.sizes.zoo_duration_s
        return data

    def setup(self):
        spec = campaign_spec.CampaignSpec.from_dict(self.spec_data())
        shared = spec.trace.get("params", {})
        traces = {}
        for family in spec.axes["workload"]:
            params = {
                **shared,
                **spec.trace.get("per_workload", {}).get(family, {}),
                "seed": self.seed,
            }
            config_cls, _ = zoo.ZOO_WORKLOADS[family]
            generate = getattr(zoo, f"generate_{family}_trace")
            traces[family] = generate(config_cls(**params))
        return spec, traces

    def run(self, state, tracer=None) -> Run:
        spec, _traces = state
        rundir = Path(tempfile.mkdtemp(prefix="zoo-", dir=self.workdir))
        journal_path = rundir / "journal.jsonl"
        with StampedJournal(journal_path) as journal:
            store = campaign_store.ResultStore(rundir / "store")
            with Stopwatch(tracer) as watch:
                sweep = campaign_spec.run_campaign(
                    spec, workers=ZOO_WORKERS, store=store, journal=journal
                )
        events = [
            e
            for e in campaign_journal.load_journal(journal_path)
            if e.get("event") == "point"
        ]
        failed = sum(1 for e in events if e["status"] != "ok")
        results = [p.result for p in sweep.points]
        digests = [
            f"{p.params['workload']}/{p.params['policy']}:{digest_of(p.result)}"
            for p in sweep.points
        ]
        return Run(
            wall_s=watch.wall_s,
            requests=sum(r.response.count for r in results),
            results=results,
            digest=combined_digest(digests),
            ack_s=[t - watch.started for t in journal.point_stamps],
            attempted=spec.grid_size(),
            failed=failed,
            spans=watch.spans,
            extra={"points": events},
        )

    def check(self, state, runs: list[Run]) -> None:
        super().check(state, runs)
        spec, traces = state
        fixed = dict(
            num_disks=spec.num_disks,
            cache_blocks=spec.cache_blocks,
            **spec.fixed,
        )
        # Failed points are counted as failures, not compared.
        failed = {
            (p["params"]["workload"], p["params"]["policy"])
            for run in runs
            for p in run.extra["points"]
            if p["status"] != "ok"
        }
        for family, trace in traces.items():
            for policy in spec.axes["policy"]:
                if (family, policy) in failed:
                    continue
                check_fast_path(
                    trace,
                    self.sizes.zoo_prefix_rows,
                    f"{self.name} {family}/{policy}",
                    policy=policy,
                    **fixed,
                )

    def peak_rss_mb(self) -> float:
        return max(peak_rss_mb(), peak_rss_mb(children=True))


# -- serve ------------------------------------------------------------------


@dataclass
class ClientReport:
    """The closed-loop client's view of one session."""

    wall_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    acked: int = 0
    retries: int = 0
    errors: int = 0
    abandoned: int = 0
    bad_acks: list[str] = field(default_factory=list)


async def closed_loop(port: int, lines: list[bytes], window: int) -> ClientReport:
    """Send ``lines`` over one connection, keeping ``window`` requests
    outstanding; time each from send to its answer."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    loop = asyncio.get_running_loop()
    report = ClientReport()
    sent_at = [0.0] * len(lines)
    tries = [0] * len(lines)
    slots = asyncio.Semaphore(window)
    clock = time.perf_counter

    def send(i: int) -> None:
        sent_at[i] = clock()
        writer.write(lines[i])

    async def receive() -> None:
        settled = 0
        while settled < len(lines):
            raw = await reader.readline()
            if not raw:
                raise CheckFailed("daemon closed the connection mid-load")
            text = raw.decode("ascii").strip()
            answer = parse_response_line(text)
            i = int(answer.req_id)
            if answer.verb == VERB_RETRY:
                report.retries += 1
                tries[i] += 1
                if tries[i] <= SERVE_MAX_RETRIES:
                    loop.call_later(min(answer.value, 0.5), send, i)
                    continue
                report.abandoned += 1
            elif answer.verb == VERB_OK:
                report.acked += 1
                report.latencies.append(clock() - sent_at[i])
            else:
                if answer.verb == VERB_ERR:
                    report.errors += 1
                report.bad_acks.append(text)
            settled += 1
            slots.release()

    started = clock()
    receiver = asyncio.ensure_future(receive())
    try:
        for i in range(len(lines)):
            await slots.acquire()
            if receiver.done():
                break
            send(i)
        await receiver
    finally:
        report.wall_s = clock() - started
        receiver.cancel()
        writer.close()
        await writer.wait_closed()
    return report


class ServeOltp(Workload):
    """A restored daemon fed the rest of an OLTP-like stream."""

    name = "serve_oltp"
    setup_per_run = True
    min_runs = 3
    session_params = dict(
        policy="pa-lru",
        num_disks=21,
        cache_blocks=2048,
        write_policy="wtdu",
        dpm="practical",
    )

    def prepare(self) -> None:
        sizes = self.sizes
        total = sizes.serve_prefix + sizes.serve_requests
        config = oltp.OLTPTraceConfig(
            duration_s=total * 0.099 * 1.2 + 60.0, seed=self.seed
        )
        trace = oltp.generate_oltp_trace_columnar(config)
        require(len(trace) >= total, "OLTP stream shorter than the workload")
        self.trace = trace[:total]
        requests = self.trace.to_requests()
        prefix = requests[: sizes.serve_prefix]
        stream = requests[sizes.serve_prefix :]
        session = runner.build_session(
            record_requests=True, **self.session_params
        )
        session.feed(prefix)
        self.checkpoint = self.workdir / "serve-prefix.json"
        serve_checkpoint.save_checkpoint(session.checkpoint(), self.checkpoint)
        self.lines = [
            (
                format_request(
                    str(i), r.disk, r.block, r.nblocks, r.is_write, r.time
                )
                + "\n"
            ).encode("ascii")
            for i, r in enumerate(stream)
        ]

    def setup(self):
        rundir = Path(tempfile.mkdtemp(prefix="serve-", dir=self.workdir))
        config = serve_daemon.ServeConfig(
            restore_path=str(self.checkpoint),
            checkpoint_dir=str(rundir),
            checkpoint_every=self.sizes.serve_checkpoint_every,
            # Explicit stamps drive simulated time, so the idle ticker
            # is parked: it could only race the stream's first stamp.
            tick_interval_s=HOUR,
        )
        return serve_daemon.ServeDaemon(config, out=io.StringIO())

    def run(self, state, tracer=None) -> Run:
        daemon = state
        report, result, spans = asyncio.run(self._session(daemon, tracer))
        failed = len(report.bad_acks) + report.abandoned
        return Run(
            wall_s=report.wall_s,
            requests=report.acked,
            results=[result],
            digest=digest_of(result),
            ack_s=report.latencies,
            attempted=len(self.lines),
            failed=failed,
            spans=spans,
            extra={"client": report},
        )

    async def _session(self, daemon, tracer):
        await daemon.start()
        lo = tracer.mark() if tracer else 0
        report = await closed_loop(daemon.tcp_port, self.lines, SERVE_WINDOW)
        hi = tracer.mark() if tracer else 0
        daemon.request_drain()
        await daemon.wait_closed()
        require(daemon.exit_code == 0, "serve daemon reported a fatal error")
        return report, daemon.result, (lo, hi)

    def check(self, state, runs: list[Run]) -> None:
        for run in runs:
            report = run.extra["client"]
            if report.bad_acks:
                raise CheckFailed(
                    f"serve answered {report.bad_acks[0]!r} instead of OK"
                )
            require(
                report.acked == len(self.lines),
                f"serve acknowledged {report.acked} of {len(self.lines)}",
            )
        reference = runner.run_simulation(self.trace, **self.session_params)
        want = digest_of(reference)
        for run in runs:
            require(
                run.digest == want,
                "drained serve result differs from run_simulation over "
                "the restored prefix plus the served stream",
            )
        super().check(state, runs)


WORKLOADS = {
    cls.name: cls for cls in (OltpPaLru, CelloOpg, ZooSweep, ServeOltp)
}

