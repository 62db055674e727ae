"""Drive a workload: the untimed prepare, repeated timed set-ups, timed
units until ``--seconds`` of work is measured, then the output checks.

:func:`measure` gives the end-to-end metrics (tracing off);
:func:`measure_traced` gives the per-layer ledger from one untraced and
one traced unit of the same work.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.checks import DigestLedger, require
from perfbench.metrics import PER_LAYER
from perfbench.tracer import KERNELS, Tracer
from perfbench.workloads import ZOO_WORKERS, Run, Workload

MIB = 1024.0 * 1024.0


@dataclass
class Report:
    """What one benchmark invocation prints."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    #: Sample counts behind the timed metrics, for the human-readable lines.
    samples: dict[str, str] = field(default_factory=dict)


def nearest_rank(samples: list[float], q: float) -> float:
    """The ``q`` quantile by nearest rank (the maximum when fewer than
    ``1 / (1 - q)`` samples exist)."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(round(q * len(ordered), 9)))
    return ordered[rank - 1]


class Phases:
    """Wall time of each phase of a run, reported on standard error."""

    def __init__(self, label: str) -> None:
        self.label = label
        self.walls: list[tuple[str, float]] = []

    @contextmanager
    def __call__(self, phase: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.walls.append((phase, time.perf_counter() - t0))

    def report(self, **samples: list[float]) -> None:
        parts = [f"{p} {w:.1f} s" for p, w in self.walls]
        parts += [
            f"{name} [{' '.join(f'{v:.2f}' for v in values)}] s"
            for name, values in samples.items()
        ]
        print(f"perfbench {self.label}: {', '.join(parts)}", file=sys.stderr)


def timed_setup(workload: Workload, setups: list[float]):
    t0 = time.perf_counter()
    state = workload.setup()
    setups.append(time.perf_counter() - t0)
    return state


def run_units(workload: Workload, seconds: float, setups: list[float]):
    """Timed units until ``seconds`` of work and ``min_runs`` units; a
    unit that raises stops the run at ``min_runs``."""
    runs: list[Run] = []
    failed = 0
    state = None
    if not workload.setup_per_run:
        for _ in range(workload.sizes.setup_repeats):
            state = None  # free the previous inputs before rebuilding
            state = timed_setup(workload, setups)
    measured = 0.0
    while len(runs) + failed < workload.min_runs or (
        measured < seconds and not failed
    ):
        if workload.setup_per_run:
            state = None
            state = timed_setup(workload, setups)
        t0 = time.perf_counter()
        try:
            run = workload.run(state)
        except Exception:  # a unit that raises is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            failed += 1
            measured += time.perf_counter() - t0
            continue
        runs.append(run)
        measured += run.wall_s
    require(runs, f"{workload.name}: every timed unit raised")
    return state, runs, failed


def end_to_end(workload: Workload, setups, runs: list[Run]) -> dict[str, float]:
    """Medians over the run's units.  An ack percentile is taken within
    each unit first, so one disturbed serve session cannot set it.  The
    tail reported is p95: in the closed serve loop every pause holds a
    whole window of acks, so p99 counts host hiccups more than it
    measures the daemon."""
    return {
        "setup_s": statistics.median(setups),
        "krps": statistics.median(r.requests / r.wall_s for r in runs) / 1e3,
        "peak_rss_mb": workload.peak_rss_mb(),
        "energy_kj": sum(r.total_energy_j for r in runs[0].results) / 1e3,
        "ack_p50_ms": statistics.median(nearest_rank(r.ack_s, 0.5) for r in runs)
        * 1e3,
        "ack_p95_ms": statistics.median(nearest_rank(r.ack_s, 0.95) for r in runs)
        * 1e3,
    }


def ledger_key(workload: Workload) -> str:
    sizes = hashlib.sha256(repr(workload.sizes).encode()).hexdigest()[:12]
    return f"{workload.name}:seed={workload.seed}:sizes={sizes}"


def measure(workload: Workload, seconds: float, ledger: Path) -> Report:
    """The end-to-end run: tracing off, repeated units, medians.

    ``ledger`` holds the digests of earlier runs in this checkout."""
    phases = Phases(workload.name)
    with phases("prepare"):
        workload.prepare()
    setups: list[float] = []
    with phases("set-up + timed units"):
        state, runs, failed = run_units(workload, seconds, setups)
    with phases("checks"):
        workload.check(state, runs)
        DigestLedger(ledger).check(ledger_key(workload), runs[0].digest)
    phases.report(units=[r.wall_s for r in runs], setups=setups)
    metrics = end_to_end(workload, setups, runs)
    return Report(
        metrics=metrics,
        attempted=sum(r.attempted for r in runs) + failed,
        failed=sum(r.failed for r in runs) + failed,
        samples={
            "setup_s": f"{len(setups)} set-ups",
            "krps": f"{len(runs)} units",
            "ack_p50_ms": f"{len(runs)} units of {len(runs[0].ack_s)} acks",
            "ack_p95_ms": f"{len(runs)} units of {len(runs[0].ack_s)} acks",
        },
    )


def measure_traced(workload: Workload, spans: Path) -> Report:
    """One untraced unit, then the same set-up and unit traced; the
    spans are written to ``spans``."""
    phases = Phases(workload.name)
    with phases("prepare"):
        workload.prepare()
    with phases("untraced unit"):
        plain = workload.run(workload.setup())
    tracer = Tracer()
    tracer.install()
    try:
        with phases("traced unit"):
            setup_lo = tracer.mark()
            state = workload.setup()
            setup_hi = tracer.mark()
            traced = workload.run(state, tracer)
    finally:
        tracer.uninstall()
    require(
        traced.digest == plain.digest,
        f"{workload.name}: traced result digest differs from the untraced one",
    )
    with phases("checks"):
        workload.check(state, [plain, traced])
    tracer.write(spans)
    phases.report()
    metrics = per_layer(
        tracer.summary(setup_lo, setup_hi),
        tracer.summary(*traced.spans),
        traced,
        plain,
    )
    metrics["trace.spans"] = float(tracer.mark())
    return Report(
        metrics=metrics,
        attempted=plain.attempted + traced.attempted,
        failed=plain.failed + traced.failed,
    )


def per_layer(setup, timed, run: Run, plain: Run) -> dict[str, float]:
    """The per-layer ledger; layers a workload does not reach read 0."""
    m = {name: 0.0 for name, *_ in PER_LAYER}
    m["traces.generate_s"] = setup.get("traces.generate").total_s
    m["traces.import_s"] = setup.get("traces.import").total_s
    m["traces.import_rows"] = setup.get("traces.import").value_sum
    m["traces.as_lists_s"] = timed.get("traces.as_lists").total_s
    for kernel in KERNELS:
        stats = timed.get(f"core.kernels.{kernel}")
        m[f"core.kernels.{kernel}_s"] = stats.total_s
        m[f"core.kernels.{kernel}_calls"] = stats.calls
    m["core.opg.prepare_s"] = timed.get("core.opg.prepare").total_s
    m["sim.run_s"] = timed.get("sim.run").total_s
    m["sim.finish_s"] = timed.get("sim.finish").total_s
    m["sim.loop_self_s"] = timed.get("sim.run").self_s
    m["sim.restore_s"] = setup.get("sim.restore").total_s
    feed = timed.get("sim.feed")
    m["sim.feed_s"] = feed.total_s
    m["sim.feed_calls"] = feed.calls
    m["sim.feed_batch_mean"] = feed.value_sum / feed.calls if feed.calls else 0.0
    m["sim.handle_request_s"] = timed.get("sim.handle_request").total_s
    write = timed.get("sim.checkpoint_write")
    m["sim.checkpoint_s"] = timed.get("sim.checkpoint").total_s + write.total_s
    m["sim.checkpoints"] = write.calls
    m["sim.checkpoint_mb"] = write.value_sum / MIB

    results = run.results
    accesses = sum(r.cache_accesses for r in results)
    hits = sum(r.cache_hits for r in results)
    m["cache.accesses"] = accesses
    m["cache.hits"] = hits
    m["cache.misses"] = sum(r.cache_misses for r in results)
    m["cache.cold_misses"] = sum(r.cold_misses for r in results)
    m["cache.evictions"] = sum(r.evictions for r in results)
    m["cache.hit_ratio"] = hits / accesses if accesses else 0.0
    m["cache.access_s"] = timed.get("cache.access").total_s
    m["cache.write_s"] = timed.get("cache.write").total_s
    m["sim.resp_mean_ms"] = (
        sum(r.response.mean_s * r.response.count for r in results)
        / sum(r.response.count for r in results)
        * 1e3
    )
    m["disk.reads"] = sum(r.disk_reads for r in results)
    m["disk.writes"] = sum(r.disk_writes for r in results)
    m["disk.submit_s"] = timed.get("disk.submit").total_s
    m["power.spinups"] = sum(r.spinups for r in results)
    m["power.spindowns"] = sum(r.spindowns for r in results)
    accounts = [d.account for r in results for d in r.disks]
    m["power.idle_kj"] = sum(sum(a.mode_energy_j.values()) for a in accounts) / 1e3
    m["power.transition_kj"] = sum(a.transition_energy_j for a in accounts) / 1e3
    m["power.service_kj"] = sum(a.service_energy_j for a in accounts) / 1e3
    dispatch = timed.get("observe.dispatch")
    m["observe.events"] = dispatch.calls
    m["observe.dispatch_s"] = dispatch.total_s

    points = run.extra.get("points", [])
    if points:
        busy = sum(p["wall_time_s"] for p in points)
        m["campaign.points"] = len(points)
        m["campaign.failed"] = sum(1 for p in points if p["status"] != "ok")
        m["campaign.retries"] = sum(p["retries"] for p in points)
        m["campaign.busy_s"] = busy
        m["campaign.utilization"] = busy / (run.wall_s * ZOO_WORKERS)
        for p in points:
            m[f"campaign.point_s.{p['params']['policy']}"] += p["wall_time_s"]
    m["campaign.store_put_s"] = timed.get("campaign.store_put").total_s
    m["campaign.journal_s"] = timed.get("campaign.journal").total_s

    m["serve.parse_s"] = timed.get("serve.parse").total_s
    m["serve.ingest_s"] = timed.get("serve.ingest").total_s
    client = run.extra.get("client")
    if client is not None:
        m["serve.retries"] = client.retries
        # From the untraced session: the wrappers would inflate it.
        m["serve.ack_p99_ms"] = nearest_rank(plain.ack_s, 0.99) * 1e3
    m["serve.queue_depth_max"] = timed.get("serve.ingest").value_max

    m["trace.wall_s"] = run.wall_s
    m["trace.residual_s"] = run.wall_s - timed.top_level_s
    m["trace.overhead_s"] = run.wall_s - plain.wall_s
    return {name: float(value) for name, value in m.items()}
