"""Command-line interface.

Main subcommands::

    python -m repro info                         # Table 1: the disk model
    python -m repro generate oltp -o trace.csv   # produce a workload file
    python -m repro trace import blk.txt -o trace.csv  # import a real trace
    python -m repro simulate trace.csv -p pa-lru # run one policy
    python -m repro simulate --workload dbms -p pa-lru   # generate + run
    python -m repro compare trace.csv -p lru -p pa-lru   # normalized table
    python -m repro campaign spec.json --workers 4 --cache-dir .cache
    python -m repro faults trace.csv --matrix      # crash-recovery audit
    python -m repro serve -p pa-lru --tcp-port 7777  # live ingest daemon

``generate`` accepts any name in :data:`WORKLOAD_NAMES` — the classic
``oltp``/``cello``/``synthetic`` generators plus the zoo families in
:mod:`repro.traces.zoo` — and the most useful generator knobs;
``simulate``/``compare`` take either a trace CSV or ``--workload`` and
accept any policy from :data:`repro.sim.runner.POLICY_NAMES` and any
write policy from :data:`repro.sim.runner.WRITE_POLICY_NAMES`.
``trace import`` converts blktrace text dumps and iostat reports into
the native CSV (:mod:`repro.traces.ingest`). ``campaign`` runs a whole
experiment grid from a JSON spec file through the parallel, cached,
journaled executor in :mod:`repro.campaign`.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis.tables import ascii_table
from repro.errors import ReproError
from repro.power.envelope import EnergyEnvelope
from repro.power.specs import ULTRASTAR_36Z15, build_power_model
from repro.sim.runner import POLICY_NAMES, WRITE_POLICY_NAMES, run_simulation
from repro.traces import WORKLOADS, ZOO_WORKLOADS
from repro.traces.columnar import ColumnarTrace
from repro.traces.io import save_trace
from repro.traces.stats import characterize
from repro.units import KILO, MINUTE, MS_PER_S

#: ``generate`` / ``--workload`` choices: the classic generators plus
#: the workload zoo families (see repro.traces.zoo).
WORKLOAD_NAMES = ("oltp", "cello", "synthetic") + tuple(sorted(ZOO_WORKLOADS))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Power-aware storage cache management (HPCA 2004 "
        "reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="print the disk power model (Table 1)")

    gen = sub.add_parser("generate", help="generate a workload trace file")
    gen.add_argument(
        "workload", choices=WORKLOAD_NAMES,
        help="which generator to run",
    )
    gen.add_argument("-o", "--output", required=True, help="output CSV path")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument(
        "--duration", type=float, default=None,
        help="trace duration in seconds (all workloads except synthetic)",
    )
    gen.add_argument(
        "--requests", type=int, default=None,
        help="request count (synthetic)",
    )
    gen.add_argument("--write-ratio", type=float, default=None)

    trace_cmd = sub.add_parser(
        "trace",
        help="trace-file utilities (import real block traces)",
    )
    trace_sub = trace_cmd.add_subparsers(dest="trace_command", required=True)
    imp = trace_sub.add_parser(
        "import",
        help="convert a blktrace text dump or iostat report to the "
        "native trace CSV (see repro.traces.ingest)",
    )
    imp.add_argument("source", help="blkparse text dump or iostat report")
    imp.add_argument("-o", "--output", required=True, help="output CSV path")
    imp.add_argument(
        "--format", choices=("blktrace", "iostat"), default=None,
        help="input format (default: sniffed from the file)",
    )
    imp.add_argument(
        "--block-size", type=int, default=None, metavar="BYTES",
        help="simulator block size (default 8 KiB)",
    )
    imp.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="iostat sampling interval (default 1.0)",
    )

    def add_run_args(p):
        p.add_argument(
            "trace", nargs="?", default=None,
            help="trace CSV (from `repro generate` / `repro trace "
            "import`); omit to use --workload",
        )
        p.add_argument(
            "--workload", choices=WORKLOAD_NAMES, default=None,
            help="generate the workload in-process instead of reading "
            "a trace file",
        )
        p.add_argument(
            "--seed", type=int, default=None,
            help="generator seed (--workload only)",
        )
        p.add_argument(
            "--duration", type=float, default=None,
            help="generated trace duration in seconds (--workload only)",
        )
        p.add_argument(
            "--disks", type=int, default=None,
            help="number of disks (default: inferred from the trace)",
        )
        p.add_argument(
            "--cache-blocks", type=int, default=2048,
            help="cache capacity in blocks (default 2048)",
        )
        p.add_argument(
            "--dpm", choices=("practical", "oracle", "always_on"),
            default="practical",
        )
        p.add_argument(
            "-w", "--write-policy", choices=WRITE_POLICY_NAMES,
            default="write-back",
        )
        p.add_argument(
            "--prefetch-depth", type=int, default=0,
            help="enable sequential wake prefetching (online policies)",
        )
        p.add_argument(
            "--trace-events", action="store_true",
            help="stream structured events through a metrics sink and "
            "report the counters (see repro.observe)",
        )

    run = sub.add_parser("simulate", help="simulate one policy on a trace")
    add_run_args(run)
    run.add_argument(
        "-p", "--policy", choices=POLICY_NAMES, default="lru",
    )
    run.add_argument(
        "--trace-file", default=None, metavar="PATH",
        help="write every simulation event as JSONL to PATH",
    )

    cmp_ = sub.add_parser(
        "compare", help="run several policies and print a normalized table"
    )
    add_run_args(cmp_)
    cmp_.add_argument(
        "-p", "--policy", action="append", dest="policies",
        choices=POLICY_NAMES,
        help="repeatable; defaults to lru + pa-lru",
    )

    rep = sub.add_parser(
        "reproduce",
        help="regenerate the paper's headline results in one command",
    )
    rep.add_argument(
        "--quick", action="store_true",
        help="reduced trace lengths (~30 s instead of ~3 min)",
    )

    camp = sub.add_parser(
        "campaign",
        help="run an experiment grid from a spec file, in parallel and "
        "resumable (see repro.campaign)",
    )
    camp.add_argument("spec", help="campaign spec JSON (see repro.campaign.spec)")
    camp.add_argument(
        "--workers", type=int, default=1,
        help="simulation worker processes (default 1 = serial)",
    )
    camp.add_argument(
        "--cache-dir", default=None,
        help="content-addressed result store; re-runs skip cached points",
    )
    camp.add_argument(
        "--resume", action="store_true",
        help="require an existing --cache-dir and serve finished points "
        "from it (error if the store is missing)",
    )
    camp.add_argument(
        "--journal", default=None,
        help="JSONL telemetry path (default <cache-dir>/journal.jsonl)",
    )
    camp.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="kill any grid point exceeding this wall time (workers > 1)",
    )
    camp.add_argument(
        "--retries", type=int, default=0,
        help="extra attempts for a failed/timed-out point (default 0)",
    )
    camp.add_argument("--csv", default=None, help="export records as CSV")
    camp.add_argument("--json", default=None, help="export records as JSON")
    camp.add_argument(
        "--trace-events", action="store_true",
        help="attach a metrics sink to every grid point; counters appear "
        "as trace_metrics in each record",
    )

    faults = sub.add_parser(
        "faults",
        help="crash a simulation and audit WTDU recovery, or sweep a "
        "crash matrix across write policies (see repro.faults)",
    )
    faults.add_argument("trace", help="trace CSV (from `repro generate`)")
    faults.add_argument(
        "--disks", type=int, default=None,
        help="number of disks (default: inferred from the trace)",
    )
    faults.add_argument(
        "--cache-blocks", type=int, default=2048,
        help="cache capacity in blocks (default 2048)",
    )
    faults.add_argument(
        "-p", "--policy", choices=POLICY_NAMES, default="lru",
    )
    faults.add_argument(
        "-w", "--write-policy", choices=WRITE_POLICY_NAMES, default="wtdu",
        help="write policy for a single crash scenario (default wtdu)",
    )
    point = faults.add_mutually_exclusive_group()
    point.add_argument(
        "--crash-at", type=int, default=None, metavar="N",
        help="cut power after N completed requests",
    )
    point.add_argument(
        "--crash-time", type=float, default=None, metavar="SECONDS",
        help="cut power at this simulated time",
    )
    faults.add_argument(
        "--matrix", action="store_true",
        help="sweep spread crash points across every write policy "
        "instead of one scenario (ignores -w/--crash-at/--crash-time)",
    )
    faults.add_argument(
        "--seed", type=int, default=0,
        help="fault-injection RNG seed (default 0)",
    )
    faults.add_argument(
        "--spinup-fail-rate", type=float, default=0.0, metavar="P",
        help="probability each spin-up attempt fails (default 0)",
    )
    faults.add_argument(
        "--io-error-rate", type=float, default=0.0, metavar="P",
        help="probability each request hits a transient I/O error "
        "(default 0)",
    )
    faults.add_argument(
        "--log-region-blocks", type=int, default=4096,
        help="WTDU log-region capacity in blocks (default 4096)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the online service daemon — live request ingest in "
        "simulated-time lockstep (see repro.serve)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--tcp-port", type=int, default=0,
        help="line-protocol port (0 = ephemeral, printed in READY)",
    )
    serve.add_argument(
        "--http-port", type=int, default=0,
        help="/metrics + /ingest port (0 = ephemeral, printed in READY)",
    )
    serve.add_argument(
        "-p", "--policy", choices=POLICY_NAMES, default="lru",
        help="replacement policy (offline policies cannot serve live)",
    )
    serve.add_argument("--disks", type=int, default=4)
    serve.add_argument("--cache-blocks", type=int, default=2048)
    serve.add_argument(
        "--dpm", choices=("practical", "oracle", "always_on"),
        default="practical",
    )
    serve.add_argument(
        "-w", "--write-policy", choices=WRITE_POLICY_NAMES,
        default="write-back",
    )
    serve.add_argument("--prefetch-depth", type=int, default=0)
    serve.add_argument(
        "--time-dilation", type=float, default=1.0,
        help="simulated seconds per wall second (default 1.0)",
    )
    serve.add_argument(
        "--queue-capacity", type=int, default=4096,
        help="bounded ingest queue size; overflow answers RETRY",
    )
    serve.add_argument("--batch-max", type=int, default=256)
    serve.add_argument(
        "--tick-interval", type=float, default=0.05,
        help="idle watermark-advance period in wall seconds",
    )
    serve.add_argument(
        "--feed-delay", type=float, default=0.0,
        help="test throttle: sleep this many wall seconds after each "
        "fed batch (provokes backpressure deterministically)",
    )
    serve.add_argument(
        "--checkpoint-dir", default=None,
        help="enable checkpointing (POST /checkpoint, --checkpoint-every, "
        "and a final checkpoint on drain) into this directory",
    )
    serve.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="N",
        help="also checkpoint every N served requests",
    )
    serve.add_argument(
        "--restore", default=None, metavar="CHECKPOINT",
        help="restore from a checkpoint file and continue serving",
    )
    serve.add_argument(
        "--load-gen", action="store_true",
        help="run the load generator against an existing daemon "
        "instead of serving (needs --tcp-port)",
    )
    serve.add_argument(
        "--users", type=int, default=8, help="load-gen: concurrent users"
    )
    serve.add_argument(
        "--requests", type=int, default=10_000,
        help="load-gen: total requests to send",
    )
    serve.add_argument(
        "--workload", choices=("zipf", "oltp"), default="zipf",
        help="load-gen: synthetic request mix",
    )
    serve.add_argument("--seed", type=int, default=42)
    serve.add_argument(
        "--pace", type=float, default=0.0,
        help="load-gen: wall seconds between a user's requests",
    )
    serve.add_argument(
        "--explicit-time-base", type=float, default=None, metavar="T",
        help="load-gen: pin explicit t= stamps offset by T (needs "
        "--users 1; makes the daemon's timeline deterministic)",
    )

    check = sub.add_parser(
        "check",
        help="run the domain static-analysis pass (reprolint) over the "
        "source tree (see repro.check)",
    )
    from repro.check.runner import add_arguments as add_check_arguments

    add_check_arguments(check)

    bench = sub.add_parser(
        "bench",
        help="time the simulator hot paths and write BENCH_hotpath.json "
        "(see benchmarks/perf/)",
    )
    bench.add_argument(
        "--small", action="store_true",
        help="50k-request smoke workload (CI); default is the full "
        "1M-request suite",
    )
    bench.add_argument(
        "-o", "--output", default="BENCH_hotpath.json",
        help="report path (default BENCH_hotpath.json)",
    )
    bench.add_argument(
        "--check", default=None, metavar="BASELINE",
        help="compare speedup ratios against a baseline report and exit "
        "non-zero on regression",
    )
    bench.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed fractional speedup drop for --check (default 0.25)",
    )
    bench.add_argument(
        "--profile", action="store_true",
        help="re-run each scenario's hot leg under cProfile and write "
        "profile_<scenario>.pstats next to the report",
    )
    return parser


def _cmd_info(_args) -> int:
    model = build_power_model(ULTRASTAR_36Z15)
    envelope = EnergyEnvelope(model)
    thresholds = {mode: t for t, mode in envelope.practical_thresholds()}
    rows = [
        [
            mode.name,
            f"{mode.rpm:.0f}",
            f"{mode.power_w:.2f}",
            f"{mode.spinup_time_s:.2f}",
            f"{mode.round_trip_energy_j:.1f}",
            f"{envelope.breakeven_time(mode.index):.2f}",
            f"{thresholds[mode.index]:.2f}" if mode.index in thresholds else "-",
        ]
        for mode in model
    ]
    print(
        ascii_table(
            ["mode", "rpm", "power(W)", "spin-up(s)", "roundtrip(J)",
             "breakeven(s)", "threshold(s)"],
            rows,
            title=f"{ULTRASTAR_36Z15.name} — multi-speed power model",
        )
    )
    return 0


def _generate_workload(
    workload: str,
    seed: int | None,
    duration: float | None,
    requests: int | None = None,
    write_ratio: float | None = None,
):
    """Build a trace from CLI generator knobs (shared generate/run path)."""
    from repro.errors import ConfigurationError

    config_cls, generate = WORKLOADS[workload]
    overrides = {}
    if seed is not None:
        overrides["seed"] = seed
    if workload == "synthetic":
        if duration is not None:
            raise ConfigurationError(
                "synthetic is sized by --requests, not --duration"
            )
        if requests is not None:
            overrides["num_requests"] = requests
    elif duration is not None:
        overrides["duration_s"] = duration
    if write_ratio is not None:
        # the DBMS family's only writes are row updates
        key = "update_fraction" if workload == "dbms" else "write_ratio"
        overrides[key] = write_ratio
    return generate(config_cls(**overrides))


def _cmd_generate(args) -> int:
    trace = _generate_workload(
        args.workload,
        seed=args.seed,
        duration=args.duration,
        requests=args.requests,
        write_ratio=args.write_ratio,
    )
    save_trace(trace, args.output)
    stats = characterize(trace)
    print(f"wrote {stats.requests:,} requests to {args.output}")
    print(
        f"  disks={stats.disks} writes={stats.write_fraction:.0%} "
        f"mean gap={stats.mean_interarrival_s * MS_PER_S:.2f} ms "
        f"duration={stats.duration_s:.0f} s"
    )
    return 0


def _cmd_trace(args) -> int:
    from repro.traces.ingest import import_to_csv

    kwargs = {}
    if args.block_size is not None:
        kwargs["block_size"] = args.block_size
    summary = import_to_csv(
        args.source,
        args.output,
        args.format,
        interval_s=args.interval,
        **kwargs,
    )
    print(
        f"imported {summary.requests:,} requests "
        f"({summary.format}) to {args.output}"
    )
    print(
        f"  disks={summary.num_disks} duration={summary.duration_s:.1f} s "
        f"lines={summary.lines:,} skipped={summary.skipped:,}"
    )
    return 0


def _infer_disks(trace) -> int:
    if not len(trace):
        return 1
    disks = getattr(trace, "disks", None)
    if disks is not None:
        return int(max(disks)) + 1
    return max(r.disk for r in trace) + 1


def _load(args):
    from repro.errors import ConfigurationError

    workload = getattr(args, "workload", None)
    if (args.trace is None) == (workload is None):
        raise ConfigurationError(
            "give either a trace file or --workload (not both)"
        )
    if workload is not None:
        trace = _generate_workload(
            workload, seed=args.seed, duration=args.duration
        )
    else:
        trace = ColumnarTrace.from_csv(args.trace)
    disks = args.disks or _infer_disks(trace)
    return trace, disks


def _cmd_simulate(args) -> int:
    trace, disks = _load(args)
    result = run_simulation(
        trace,
        args.policy,
        num_disks=disks,
        cache_blocks=args.cache_blocks,
        dpm=args.dpm,
        write_policy=args.write_policy,
        prefetch_depth=args.prefetch_depth,
        trace_events=args.trace_events,
        trace_file=args.trace_file,
    )
    print(result.summary())
    if result.trace_metrics is not None:
        m = result.trace_metrics
        total_events = sum(m["events"].values())
        print(
            f"  trace: {total_events:,} events "
            f"({len(m['events'])} kinds); "
            f"streamed energy={m['total_energy_j'] / KILO:.1f} kJ; "
            f"spinups={m['spinups']} spindowns={m['spindowns']}"
        )
    if args.trace_file is not None:
        print(f"  wrote event trace to {args.trace_file}")
    return 0


def _cmd_compare(args) -> int:
    trace, disks = _load(args)
    policies = args.policies or ["lru", "pa-lru"]
    results = {}
    for policy in policies:
        results[policy] = run_simulation(
            trace,
            policy,
            num_disks=disks,
            cache_blocks=args.cache_blocks,
            dpm=args.dpm,
            write_policy=args.write_policy,
            prefetch_depth=args.prefetch_depth,
            trace_events=args.trace_events,
        )
    base = results[policies[0]]
    rows = [
        [
            policy,
            f"{r.total_energy_j / KILO:.1f}",
            f"{r.energy_relative_to(base):.3f}",
            f"{r.response.mean_s * MS_PER_S:.1f}",
            f"{r.hit_ratio:.1%}",
            r.spinups,
        ]
        for policy, r in results.items()
    ]
    print(
        ascii_table(
            ["policy", "energy (kJ)", f"vs {policies[0]}",
             "mean resp (ms)", "hit ratio", "spinups"],
            rows,
            title=f"{args.trace or args.workload} — {args.dpm} DPM, "
            f"{args.cache_blocks} cache blocks",
        )
    )
    return 0


def _cmd_reproduce(args) -> int:
    """The paper's headline results, compactly."""
    from repro.analysis.figures import belady_counterexample
    from repro.traces.oltp import OLTPTraceConfig, generate_oltp_trace_columnar

    quick = getattr(args, "quick", False)
    duration = 2400.0 if quick else 7200.0
    epoch = 300.0 if quick else 900.0
    cache_blocks = 2048

    print("Figure 3 — Belady is not energy-optimal")
    example = belady_counterexample()
    print(
        f"  Belady: {example.belady_misses} misses / "
        f"{example.belady_energy:.0f} energy-units\n"
        f"  OPG   : {example.power_aware_misses} misses / "
        f"{example.power_aware_energy:.0f} energy-units "
        "(more misses, less energy)\n"
    )

    print(
        f"Figure 6(a) — OLTP energy normalized to LRU "
        f"({duration / MINUTE:.0f}-minute trace, Practical DPM)"
    )
    trace = generate_oltp_trace_columnar(OLTPTraceConfig(duration_s=duration))
    policies = ("infinite", "belady", "opg", "lru", "pa-lru")
    results = {
        p: run_simulation(
            trace, p, num_disks=21, cache_blocks=cache_blocks,
            pa_epoch_s=epoch,
        )
        for p in policies
    }
    base = results["lru"]
    rows = [
        [
            p,
            f"{results[p].energy_relative_to(base):.3f}",
            f"{results[p].response.mean_s / base.response.mean_s:.2f}",
        ]
        for p in policies
    ]
    print(ascii_table(["policy", "energy vs LRU", "response vs LRU"], rows))
    savings = results["pa-lru"].savings_over(base)
    print(
        f"\nPA-LRU saves {savings:.1%} energy vs LRU "
        "(paper: 16% on the full 2-hour trace)."
    )
    return 0


def _cmd_campaign(args) -> int:
    import json as json_module
    from pathlib import Path

    from repro.analysis.campaigns import summary_table
    from repro.campaign import (
        CampaignSpec,
        ResultStore,
        RetryPolicy,
        RunJournal,
        run_campaign,
    )
    from repro.errors import CampaignError

    spec = CampaignSpec.from_file(args.spec)
    if args.trace_events and "trace_events" not in spec.axes:
        spec.fixed["trace_events"] = True

    store = None
    if args.resume and args.cache_dir is None:
        raise CampaignError("--resume needs --cache-dir")
    if args.cache_dir is not None:
        cache_dir = Path(args.cache_dir)
        if args.resume and not cache_dir.is_dir():
            raise CampaignError(
                f"--resume: no result store at {cache_dir}"
            )
        store = ResultStore(cache_dir)

    journal_path = args.journal
    if journal_path is None and args.cache_dir is not None:
        journal_path = Path(args.cache_dir) / "journal.jsonl"

    print(
        f"campaign {spec.name!r}: {spec.grid_size()} grid points, "
        f"workers={args.workers}"
        + (f", store={store.root}" if store is not None else "")
    )
    journal = RunJournal(journal_path) if journal_path is not None else None
    try:
        sweep = run_campaign(
            spec,
            workers=args.workers,
            store=store,
            journal=journal,
            retry=RetryPolicy(timeout_s=args.timeout, retries=args.retries),
        )
    finally:
        if journal is not None:
            journal.close()

    records = sweep.records()
    if args.csv is not None:
        sweep.to_csv(args.csv)
        print(f"wrote {len(records)} records to {args.csv}")
    if args.json is not None:
        Path(args.json).write_text(json_module.dumps(records, indent=2))
        print(f"wrote {len(records)} records to {args.json}")
    if journal_path is not None:
        print(summary_table(journal_path))
    failed = spec.grid_size() - len(records)
    if failed:
        print(f"WARNING: {failed} grid point(s) failed; see the journal")
        return 1
    if not args.csv and not args.json:
        best = sweep.best("energy_j")
        print(
            f"best energy point: {best.params} -> "
            f"{best.result.total_energy_j / KILO:.1f} kJ"
        )
    return 0


def _cmd_faults(args) -> int:
    from repro.errors import ConfigurationError
    from repro.faults import FaultPlan, crash_matrix, run_crash_scenario

    trace, disks = _load(args)
    plan = FaultPlan(
        seed=args.seed,
        spinup_failure_rate=args.spinup_fail_rate,
        io_error_rate=args.io_error_rate,
    )

    def row(r):
        return [
            r.write_policy,
            f"{r.crash_index}/{r.requests_total}",
            f"{r.crash_time:.1f}",
            r.acked_writes,
            r.unhomed_blocks,
            r.replayed_blocks,
            r.verdict,
        ]

    header = [
        "write policy", "crash at", "t (s)", "acked w",
        "unhomed", "replayed", "verdict",
    ]
    if args.matrix:
        reports = crash_matrix(
            trace,
            num_disks=disks,
            cache_blocks=args.cache_blocks,
            policy=args.policy,
            fault_plan=plan,
            log_region_blocks=args.log_region_blocks,
        )
        print(
            ascii_table(
                header,
                [row(r) for r in reports],
                title=f"{args.trace} — crash matrix (seed {args.seed})",
            )
        )
    else:
        if args.crash_at is None and args.crash_time is None:
            raise ConfigurationError(
                "a crash point is required: --crash-at, --crash-time, "
                "or --matrix"
            )
        reports = [
            run_crash_scenario(
                trace,
                num_disks=disks,
                cache_blocks=args.cache_blocks,
                policy=args.policy,
                write_policy=args.write_policy,
                crash_at=args.crash_at,
                crash_time=args.crash_time,
                fault_plan=plan,
                log_region_blocks=args.log_region_blocks,
            )
        ]
        print(
            ascii_table(
                header,
                [row(r) for r in reports],
                title=f"{args.trace} — crash scenario (seed {args.seed})",
            )
        )
        r = reports[0]
        if r.lost:
            for disk, blocks in sorted(r.lost.items()):
                shown = ", ".join(map(str, blocks[:8]))
                more = f" (+{len(blocks) - 8} more)" if len(blocks) > 8 else ""
                print(f"  disk {disk}: lost blocks {shown}{more}")
    broken = [r for r in reports if r.persistency_expected and not r.zero_loss]
    if broken:
        print(
            f"FAIL: {len(broken)} scenario(s) lost acknowledged writes "
            "under a persistent write policy"
        )
        return 1
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    import json

    from repro.errors import ConfigurationError
    from repro.serve.daemon import ServeConfig, serve_until_drained
    from repro.serve.loadgen import LoadConfig, run_load

    if args.load_gen:
        if not args.tcp_port:
            raise ConfigurationError(
                "--load-gen needs --tcp-port of a running daemon"
            )
        report = asyncio.run(
            run_load(
                LoadConfig(
                    host=args.host,
                    port=args.tcp_port,
                    users=args.users,
                    requests=args.requests,
                    workload=args.workload,
                    num_disks=args.disks,
                    seed=args.seed,
                    pace_s=args.pace,
                    explicit_time_base=args.explicit_time_base,
                )
            )
        )
        print(json.dumps(report.to_dict(), sort_keys=True))
        return 1 if report.errors else 0

    if args.policy in ("belady", "opg"):
        raise ConfigurationError(
            f"offline policy {args.policy!r} needs the whole trace up "
            "front and cannot serve live requests"
        )
    config = ServeConfig(
        host=args.host,
        tcp_port=args.tcp_port,
        http_port=args.http_port,
        time_dilation=args.time_dilation,
        queue_capacity=args.queue_capacity,
        batch_max=args.batch_max,
        tick_interval_s=args.tick_interval,
        feed_delay_s=args.feed_delay,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        restore_path=args.restore,
        session_params={
            "policy": args.policy,
            "num_disks": args.disks,
            "cache_blocks": args.cache_blocks,
            "dpm": args.dpm,
            "write_policy": args.write_policy,
            "prefetch_depth": args.prefetch_depth,
        },
    )
    daemon = asyncio.run(serve_until_drained(config))
    return daemon.exit_code


def _cmd_bench(args) -> int:
    from repro.bench import main as bench_main

    return bench_main(args)


def _cmd_check(args) -> int:
    from repro.check.runner import main as check_main

    return check_main(args)


_COMMANDS = {
    "info": _cmd_info,
    "generate": _cmd_generate,
    "trace": _cmd_trace,
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "reproduce": _cmd_reproduce,
    "campaign": _cmd_campaign,
    "faults": _cmd_faults,
    "serve": _cmd_serve,
    "bench": _cmd_bench,
    "check": _cmd_check,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # output piped into a pager/head that closed early — not an error
        return 0
    except ReproError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
