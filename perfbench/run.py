"""The benchmark's one command.

Run from the root of a checkout::

    python3 perfbench/run.py --workload oltp_palru --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes the separate traced run that gives the per-layer
ledger.  Either way the outputs are checked, every metric is printed
by name and unit, and the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A failed
output check prints ``"correct": false`` and exits 1.

``--write-manifest`` rewrites ``BENCHMARK.json`` from
``perfbench/metrics.py`` and exits.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

#: Scratch space inside the checkout (listed in ``.gitignore``).
WORKDIR = ROOT / ".bench_build" / "perfbench"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="self-test sizes: the same code on inputs a few seconds long",
    )
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.write_manifest and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_manifest:
        from perfbench.metrics import write_manifest

        write_manifest(ROOT / "BENCHMARK.json")
        return 0
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Timed runs attach no probe; the invariant checker would add one.
    os.environ.pop("REPRO_CHECK_INVARIANTS", None)
    os.chdir(ROOT)

    from perfbench.checks import CheckFailed
    from perfbench.harness import measure, measure_traced
    from perfbench.metrics import UNITS
    from perfbench.workloads import FULL, TINY, WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    WORKDIR.mkdir(parents=True, exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR))
    workload = WORKLOADS[args.workload](
        args.seed, TINY if args.tiny else FULL, rundir
    )
    try:
        if args.trace:
            report = measure_traced(
                workload, WORKDIR / f"spans-{args.workload}.tsv"
            )
        else:
            report = measure(workload, args.seconds, WORKDIR / "digests.json")
    except CheckFailed as exc:
        print(f"perfbench: output check failed: {exc}", file=sys.stderr)
        print(
            json.dumps(
                {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            )
        )
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    for name, value in report.metrics.items():
        count = report.samples.get(name)
        suffix = f"  ({count})" if count else ""
        print(f"{args.workload} {name} = {value:.6g} {UNITS[name]}{suffix}")
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": report.attempted,
                "failed": report.failed,
                "metrics": {
                    name: {"value": value, "unit": UNITS[name]}
                    for name, value in report.metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
