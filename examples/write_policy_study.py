#!/usr/bin/env python3
"""Write-policy study: WT vs WB vs WBEU vs WTDU (Section 6).

Sweeps the write ratio on the Table-3 synthetic workload, printing each
policy's energy savings over write-through — then demonstrates WTDU's
crash-recovery machinery on its timestamped log regions.

Run:
    python examples/write_policy_study.py
"""

from repro import LogDevice, generate_synthetic_trace_columnar, run_simulation
from repro.analysis.tables import ascii_table
from repro.traces.synthetic import SyntheticTraceConfig

POLICIES = ("write-back", "wbeu", "wtdu")
WRITE_RATIOS = (0.2, 0.5, 0.8, 1.0)


def energy_sweep() -> None:
    rows = []
    for write_ratio in WRITE_RATIOS:
        trace = generate_synthetic_trace_columnar(
            SyntheticTraceConfig(num_requests=20_000, write_ratio=write_ratio)
        )
        wt = run_simulation(
            trace, "lru", num_disks=20, cache_blocks=2048,
            write_policy="write-through",
        )
        row = [f"{write_ratio:.0%}"]
        for policy in POLICIES:
            result = run_simulation(
                trace, "lru", num_disks=20, cache_blocks=2048,
                write_policy=policy,
            )
            row.append(f"{result.savings_over(wt):+.1%}")
        rows.append(row)
    print(ascii_table(
        ["write ratio", "WB vs WT", "WBEU vs WT", "WTDU vs WT"],
        rows,
        title="Energy savings over write-through (Figure 9, one slice)",
    ))


def recovery_demo() -> None:
    print("\nWTDU crash recovery demo")
    print("------------------------")
    log = LogDevice(num_disks=2, region_capacity_blocks=8)
    print("disk 0 is asleep; three writes are deferred into its log region:")
    for block in (10, 11, 12):
        log.append(0, (0, block))
        print(f"  logged block {block} @ timestamp {log.regions[0].timestamp}")
    print("disk 0 wakes; cached copies are written home; region flushed")
    log.flush(0)
    print("two more writes deferred in the new epoch:")
    for block in (13, 14):
        log.append(0, (0, block))
        print(f"  logged block {block} @ timestamp {log.regions[0].timestamp}")
    print("CRASH! recovering from the log regions...")
    pending = log.recover_all()
    print(f"  blocks to replay to disk 0: {sorted(b for _, b in pending[0])}")
    print("  (epoch-0 blocks 10-12 are on disk already: stale stamps)")
    assert sorted(b for _, b in pending[0]) == [13, 14]


def main() -> None:
    energy_sweep()
    recovery_demo()


if __name__ == "__main__":
    main()
