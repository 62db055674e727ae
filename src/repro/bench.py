"""The tracked performance benchmark harness (``repro bench``).

Times the simulator's hot paths on fixed, seeded workloads and writes
the measurements as JSON (``BENCH_hotpath.json`` by default) so every
PR leaves a performance trajectory behind. Each policy scenario runs
the *same* trace down both engine paths:

* **reference** — ``trace.to_requests()``, a list of
  :class:`~repro.traces.record.IORequest` objects driving the
  per-object ``handle_request`` loop, and
* **columnar** — the :class:`~repro.traces.columnar.ColumnarTrace`
  itself, driving the struct-of-arrays fast loops,

and records wall times plus their ratio (``speedup``). Because the
ratio compares two measurements from the same process on the same
machine, it is what CI gates on — absolute wall times vary across
runners, the reference/columnar ratio far less. The harness also
asserts the two paths produce byte-identical serialized results, so a
perf run doubles as an end-to-end equivalence check.

Scenarios (``--small`` shrinks the workloads for CI smoke runs):

========== ===========================================================
generate    synthetic trace generation into columns (krows/s)
lru_wb      LRU + write-back, practical DPM (the headline scenario)
pa_lru      PA-LRU (epoch classifier exercised)
opg_theta0  OPG with θ=0 (offline prepare + priority eviction)
opg_deep    OPG θ=0 on 2 disks: the same request count concentrated
            on two timelines, so per-disk structures grow ~10x deeper
            — the scenario where timeline asymptotics dominate
lirs_dbms   LIRS vs LRU on the zoo ``dbms`` trace, whose scans keep
            LIRS's ghost bound under pressure on almost every insert
campaign    16-point grid via ``run_points`` with 2 workers, trace
            pickled per worker vs shipped once through shared memory
========== ===========================================================

``--check BASELINE.json`` compares each scenario's speedup against the
committed baseline and exits non-zero on a >``--tolerance`` regression;
a baseline may also declare absolute ``floors`` that gate a metric
directly rather than relative to the baseline's own measurement (the
``generate`` scenario, which has no second path to compare, is gated
only by its ``columnar_krps`` floor).
``--profile`` re-runs each scenario's hot leg under :mod:`cProfile`
and writes ``profile_<scenario>.pstats`` next to the report.
"""

from __future__ import annotations

import cProfile
import gc
import io
import json
import platform
import pstats
import sys
import time
from pathlib import Path
from typing import Any, Callable

from repro.campaign.executor import PointTask, run_points
from repro.sim.runner import run_simulation
from repro.units import KILO
from repro.traces.synthetic import (
    SyntheticTraceConfig,
    generate_synthetic_trace_columnar,
)
from repro.traces.zoo import DBMSTraceConfig, generate_dbms_trace

#: Shared simulation knobs for every policy scenario.
COMMON = {
    "num_disks": 20,
    "cache_blocks": 2048,
    "dpm": "practical",
    "write_policy": "write-back",
}

#: name -> (policy, extra run_simulation kwargs). opg_theta0 runs
#: immediately after lru_wb: its gated ``krps_vs_lru`` divides two
#: columnar timings, and the closer together they run the less a
#: passing host-contention window can hit one leg but not the other
#: (pa_lru's short legs are far less exposed).
POLICY_SCENARIOS = (
    ("lru_wb", "lru", {}),
    ("opg_theta0", "opg", {"theta": 0.0}),
    ("pa_lru", "pa-lru", {}),
)

#: The 16-point campaign grid: 4 policies x 2 cache sizes x 2 writers.
CAMPAIGN_POLICIES = ("lru", "fifo", "clock", "pa-lru")
CAMPAIGN_CACHES = (1024, 4096)
CAMPAIGN_WRITERS = ("write-back", "write-through")

TRACE_SEED = 1234

#: ``opg_deep`` concentrates the whole trace on this many disks.
DEEP_DISKS = 2

#: ``lirs_dbms``: the ``dbms`` family as ``workload_zoo.json`` sweeps
#: it (generator seed included), and that campaign's run settings.
LIRS_DBMS_TRACE = {"num_disks": 18, "mean_think_s": 1.5}
LIRS_DBMS_RUN = {"num_disks": 18, "cache_blocks": 2048, "dpm": "practical"}

#: Rows of the per-scenario profile table printed by ``--profile``.
PROFILE_TOP = 12


def _timed(fn: Callable[[], Any], repeats: int) -> tuple[float, Any]:
    """Best-of-``repeats`` wall time; returns (seconds, last result)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best, result


def _serialized(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def _profile_scenario(
    name: str,
    fn: Callable[[], Any],
    profile_dir: Path,
    progress: Callable[[str], None],
) -> str:
    """Run ``fn`` once under cProfile; dump stats, print the top table.

    Profiling runs *after* the timed passes (instrumentation inflates
    wall time several-fold, so a profiled run must never feed the
    recorded numbers). Returns the ``.pstats`` path, loadable with
    ``python -m pstats`` or ``snakeviz`` for deeper digging.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    fn()
    profiler.disable()
    path = profile_dir / f"profile_{name}.pstats"
    profiler.dump_stats(path)
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(PROFILE_TOP)
    progress(f"profile[{name}]: wrote {path}")
    # Skip the pstats preamble; show only the column header + rows.
    lines = buffer.getvalue().splitlines()
    start = next(
        (i for i, line in enumerate(lines) if "ncalls" in line), 0
    )
    for line in lines[start:]:
        if line.strip():
            progress(f"  {line}")
    return str(path)


def _campaign_tasks() -> list[PointTask]:
    tasks = []
    for policy in CAMPAIGN_POLICIES:
        for cache in CAMPAIGN_CACHES:
            for writer in CAMPAIGN_WRITERS:
                tasks.append(
                    PointTask(
                        index=len(tasks),
                        params={
                            "policy": policy,
                            "cache_blocks": cache,
                            "write_policy": writer,
                        },
                        run_kwargs={
                            **COMMON,
                            "policy": policy,
                            "cache_blocks": cache,
                            "write_policy": writer,
                        },
                    )
                )
    return tasks


def run_bench(
    small: bool = False,
    progress: Callable[[str], None] = lambda line: None,
    profile_dir: Path | None = None,
) -> dict:
    """Run every scenario and return the report dictionary.

    With ``profile_dir`` set, each scenario's hot leg (the columnar
    run; the shared-memory hand-off for ``campaign``) is re-run once
    under cProfile after its timed passes, the stats land in
    ``profile_dir / profile_<scenario>.pstats``, and the report gains a
    ``profiles`` map of scenario name -> stats path.
    """
    policy_n = 50_000 if small else 1_000_000
    campaign_n = 10_000 if small else 100_000
    # Best-of-3 in both modes. Full mode used to take one sample per
    # leg, which made the gated cross-policy ratio (two columnar legs
    # measured minutes apart) hostage to a single host-contention
    # spike; same-scenario ratios mostly cancel contention, cross-
    # scenario ones only do when each leg keeps its best of several.
    repeats = 3

    profiles: dict[str, str] = {}

    report: dict = {
        "schema": 1,
        "mode": "small" if small else "full",
        # Report metadata, not simulation state — wall time is the point.
        "generated": time.strftime(
            "%Y-%m-%dT%H:%M:%S", time.gmtime()  # repro: ignore[determinism]
        ),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "scenarios": {},
    }
    scenarios = report["scenarios"]

    # -- trace generation --------------------------------------------------
    # One path only, so no ratio: gated by an absolute columnar_krps
    # (thousand rows/s) floor in the baseline.
    cfg = SyntheticTraceConfig(num_requests=policy_n, seed=TRACE_SEED)
    progress(f"generate: {policy_n:,} requests ...")
    columnar_s, trace = _timed(
        lambda: generate_synthetic_trace_columnar(cfg), repeats
    )
    scenarios["generate"] = {
        "requests": policy_n,
        "columnar_s": round(columnar_s, 4),
        "columnar_krps": round(policy_n / columnar_s / KILO, 1),
    }
    progress(
        f"generate: columnar {columnar_s:.2f}s "
        f"({policy_n / columnar_s / KILO:.1f} krows/s)"
    )
    if profile_dir is not None:
        profiles["generate"] = _profile_scenario(
            "generate",
            lambda: generate_synthetic_trace_columnar(cfg),
            profile_dir,
            progress,
        )

    # -- policy scenarios --------------------------------------------------
    reference_trace = trace.to_requests()
    lru_columnar_s = None
    for name, policy, extra in POLICY_SCENARIOS:
        progress(f"{name}: {policy_n:,} requests ...")
        reference_s, reference_result = _timed(
            lambda: run_simulation(
                reference_trace, policy, **COMMON, **extra
            ),
            repeats,
        )
        columnar_s, columnar_result = _timed(
            lambda: run_simulation(trace, policy, **COMMON, **extra),
            repeats,
        )
        identical = _serialized(reference_result) == _serialized(
            columnar_result
        )
        scenarios[name] = {
            "requests": policy_n,
            "reference_s": round(reference_s, 4),
            "columnar_s": round(columnar_s, 4),
            "speedup": round(reference_s / columnar_s, 3),
            "columnar_krps": round(policy_n / columnar_s / KILO, 1),
            "identical": identical,
        }
        # Throughput relative to the plain-LRU fast loop, measured in
        # the same process: 1.0 for lru_wb itself, 0.5 = half LRU's
        # krps. This is the cross-policy ratio the hot-path work tracks
        # ("every policy within 2x of plain LRU" reads as >= 0.5).
        if name == "lru_wb":
            lru_columnar_s = columnar_s
        if lru_columnar_s is not None:
            scenarios[name]["krps_vs_lru"] = round(
                lru_columnar_s / columnar_s, 3
            )
        progress(
            f"{name}: reference {reference_s:.2f}s, columnar "
            f"{columnar_s:.2f}s ({reference_s / columnar_s:.2f}x, "
            f"identical={identical})"
        )
        if profile_dir is not None:
            profiles[name] = _profile_scenario(
                name,
                lambda: run_simulation(trace, policy, **COMMON, **extra),
                profile_dir,
                progress,
            )
    del reference_trace

    # -- deep-timeline OPG -------------------------------------------------
    # The same request count on DEEP_DISKS disks instead of 20: per-disk
    # timelines (and OPG's reservation lists) grow ~10x deeper, so this
    # scenario is where timeline-container asymptotics show up — a flat
    # sorted list's O(n) inserts dominate here long before they hurt
    # opg_theta0. Gated like every other scenario.
    deep_cfg = SyntheticTraceConfig(
        num_requests=policy_n, seed=TRACE_SEED, num_disks=DEEP_DISKS
    )
    deep_common = {**COMMON, "num_disks": DEEP_DISKS}
    progress(f"opg_deep: {policy_n:,} requests on {DEEP_DISKS} disks ...")
    deep_trace = generate_synthetic_trace_columnar(deep_cfg)
    deep_reference = deep_trace.to_requests()
    reference_s, reference_result = _timed(
        lambda: run_simulation(
            deep_reference, "opg", theta=0.0, **deep_common
        ),
        repeats,
    )
    columnar_s, columnar_result = _timed(
        lambda: run_simulation(deep_trace, "opg", theta=0.0, **deep_common),
        repeats,
    )
    identical = _serialized(reference_result) == _serialized(columnar_result)
    scenarios["opg_deep"] = {
        "requests": policy_n,
        "num_disks": DEEP_DISKS,
        "reference_s": round(reference_s, 4),
        "columnar_s": round(columnar_s, 4),
        "speedup": round(reference_s / columnar_s, 3),
        "columnar_krps": round(policy_n / columnar_s / KILO, 1),
        "identical": identical,
    }
    if lru_columnar_s is not None:
        # Relative to the headline 20-disk LRU run — a cross-workload
        # ratio (unlike opg_theta0's same-trace one), but both legs are
        # same-process 1M-request timings, so it tracks the deep
        # scenario's cost just as machine-independently.
        scenarios["opg_deep"]["krps_vs_lru"] = round(
            lru_columnar_s / columnar_s, 3
        )
    progress(
        f"opg_deep: reference {reference_s:.2f}s, columnar "
        f"{columnar_s:.2f}s ({reference_s / columnar_s:.2f}x, "
        f"identical={identical})"
    )
    if profile_dir is not None:
        profiles["opg_deep"] = _profile_scenario(
            "opg_deep",
            lambda: run_simulation(
                deep_trace, "opg", theta=0.0, **deep_common
            ),
            profile_dir,
            progress,
        )
    del deep_reference, deep_trace, reference_result, columnar_result

    # -- LIRS on the dbms zoo trace ----------------------------------------
    # Scans push a ghost past LIRS's bound on almost every insert, so
    # this is where the cost of trimming the bottom-most ghost shows:
    # a stack scan per insert ran at about 0.012x LRU here. Both legs
    # run on the same trace, back to back.
    dbms_cfg = DBMSTraceConfig(
        duration_s=60.0 if small else 120.0, **LIRS_DBMS_TRACE
    )
    dbms_trace = generate_dbms_trace(dbms_cfg)
    dbms_n = len(dbms_trace)
    progress(f"lirs_dbms: {dbms_n:,} requests ...")
    lru_s, _ = _timed(
        lambda: run_simulation(dbms_trace, "lru", **LIRS_DBMS_RUN), repeats
    )
    lirs_s, _ = _timed(
        lambda: run_simulation(dbms_trace, "lirs", **LIRS_DBMS_RUN), repeats
    )
    scenarios["lirs_dbms"] = {
        "requests": dbms_n,
        "lru_s": round(lru_s, 4),
        "lirs_s": round(lirs_s, 4),
        "columnar_krps": round(dbms_n / lirs_s / KILO, 1),
        "krps_vs_lru": round(lru_s / lirs_s, 3),
    }
    progress(
        f"lirs_dbms: lru {lru_s:.3f}s, lirs {lirs_s:.3f}s "
        f"({lru_s / lirs_s:.3f}x LRU throughput)"
    )
    if profile_dir is not None:
        profiles["lirs_dbms"] = _profile_scenario(
            "lirs_dbms",
            lambda: run_simulation(dbms_trace, "lirs", **LIRS_DBMS_RUN),
            profile_dir,
            progress,
        )
    del dbms_trace

    # -- campaign fan-out --------------------------------------------------
    camp_cfg = SyntheticTraceConfig(num_requests=campaign_n, seed=TRACE_SEED)
    camp_trace = generate_synthetic_trace_columnar(camp_cfg)
    camp_requests = camp_trace.to_requests()
    tasks = _campaign_tasks()
    progress(f"campaign: {len(tasks)} points x {campaign_n:,} requests ...")
    pickled_s, pickled = _timed(
        lambda: run_points(tasks, trace=camp_requests, workers=2), repeats
    )
    shared_s, shared = _timed(
        lambda: run_points(tasks, trace=camp_trace, workers=2), repeats
    )
    identical = all(
        _serialized(a.result) == _serialized(b.result)
        for a, b in zip(pickled, shared)
    )
    scenarios["campaign"] = {
        "points": len(tasks),
        "requests": campaign_n,
        "workers": 2,
        "pickled_s": round(pickled_s, 4),
        "shared_s": round(shared_s, 4),
        "speedup": round(pickled_s / shared_s, 3),
        "identical": identical,
    }
    progress(
        f"campaign: pickled {pickled_s:.2f}s, shared {shared_s:.2f}s "
        f"({pickled_s / shared_s:.2f}x, identical={identical})"
    )
    if profile_dir is not None:
        # Parent-side view of the fan-out: worker wall time shows up as
        # pipe waits, but the serialization/dispatch overhead the
        # scenario exists to measure is all parent-side.
        profiles["campaign"] = _profile_scenario(
            "campaign",
            lambda: run_points(tasks, trace=camp_trace, workers=2),
            profile_dir,
            progress,
        )
    if profiles:
        report["profiles"] = profiles
    return report


def check_regression(
    report: dict, baseline: dict, tolerance: float
) -> list[str]:
    """Compare speedup ratios against a baseline report.

    Returns a list of human-readable failures (empty = pass). A
    scenario regresses when its current speedup falls more than
    ``tolerance`` (fractional) below the baseline's, when its
    throughput relative to the plain-LRU loop (``krps_vs_lru``) falls
    below the baseline's by the same margin, or when the reference and
    columnar paths stopped producing identical results. Both gated
    ratios compare two timings from the same process, so they hold
    steady across machines where absolute wall times do not.

    A baseline may additionally declare absolute floors::

        "floors": {"opg_theta0": {"krps_vs_lru": 0.30}}

    which gate the metric's raw value with no tolerance applied — the
    contract "OPG stays within 3.3x of plain LRU" survives baseline
    regeneration, where a relative gate would quietly ratchet down
    from whatever the regenerating machine happened to measure.
    """
    failures = []
    for name, metrics in baseline.get("floors", {}).items():
        current = report["scenarios"].get(name)
        for metric, floor in metrics.items():
            value = None if current is None else current.get(metric)
            if value is None:
                failures.append(
                    f"{name}: floor declared for {metric} but the "
                    "report has no such measurement"
                )
            elif value < floor:
                failures.append(
                    f"{name}: {metric} {value:.3f} fell below the "
                    f"absolute floor {floor:.3f}"
                )
    for name, current in report["scenarios"].items():
        if current.get("identical") is False:
            failures.append(f"{name}: reference and columnar results differ")
        base = baseline.get("scenarios", {}).get(name)
        if base is None:
            continue
        if "speedup" in base and "speedup" in current:
            floor = base["speedup"] * (1.0 - tolerance)
            if current["speedup"] < floor:
                failures.append(
                    f"{name}: speedup {current['speedup']:.2f}x fell below "
                    f"{floor:.2f}x (baseline {base['speedup']:.2f}x "
                    f"- {tolerance:.0%} tolerance)"
                )
        if "krps_vs_lru" in base and "krps_vs_lru" in current:
            floor = base["krps_vs_lru"] * (1.0 - tolerance)
            if current["krps_vs_lru"] < floor:
                failures.append(
                    f"{name}: throughput vs plain LRU "
                    f"{current['krps_vs_lru']:.3f} fell below "
                    f"{floor:.3f} (baseline {base['krps_vs_lru']:.3f} "
                    f"- {tolerance:.0%} tolerance)"
                )
    return failures


def main(args) -> int:
    """``repro bench`` entry point (argparse namespace in, exit code out)."""
    profile_dir = None
    if getattr(args, "profile", False):
        profile_dir = Path(args.output).resolve().parent
    report = run_bench(
        small=args.small, progress=print, profile_dir=profile_dir
    )

    output = Path(args.output)
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")

    if args.check is not None:
        baseline = json.loads(Path(args.check).read_text())
        failures = check_regression(report, baseline, args.tolerance)
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        print(
            f"no regression vs {args.check} "
            f"(tolerance {args.tolerance:.0%})"
        )
    return 0
