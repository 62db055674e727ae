"""Ablation — WBEU's forced-flush dirty threshold.

The threshold bounds how much unpersisted data a sleeping disk may
accumulate. Small thresholds force frequent wake-ups (approaching
write-through's behaviour); large ones defer everything to read-driven
wake-ups (approaching pure eager write-back).
"""

from repro.analysis.tables import ascii_table
from repro.sim.runner import run_simulation
from repro.traces.synthetic import (
    SyntheticTraceConfig,
    generate_synthetic_trace_columnar,
)

THRESHOLDS = [4, 16, 64, 256, 1024]


def sweep():
    trace = generate_synthetic_trace_columnar(
        SyntheticTraceConfig(num_requests=25_000, write_ratio=0.6, seed=41)
    )
    wt = run_simulation(
        trace, "lru", num_disks=20, cache_blocks=2048,
        write_policy="write-through",
    )
    rows = []
    for threshold in THRESHOLDS:
        result = run_simulation(
            trace,
            "lru",
            num_disks=20,
            cache_blocks=2048,
            write_policy="wbeu",
            wbeu_dirty_threshold=threshold,
        )
        rows.append((threshold, result))
    return wt, rows


def test_ablation_wbeu_threshold(benchmark, report):
    wt, rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table_rows = [
        [
            threshold,
            f"{result.savings_over(wt):+.1%}",
            result.disk_writes,
            result.pending_dirty,
        ]
        for threshold, result in rows
    ]
    report(
        "ablation_wbeu_threshold",
        ascii_table(
            ["dirty threshold", "savings vs WT", "disk writes",
             "pending dirty at end"],
            table_rows,
            title="Ablation — WBEU forced-flush threshold "
            "(synthetic, 60% writes)",
        ),
    )

    results = dict(rows)
    # every setting beats write-through
    for threshold, result in rows:
        assert result.savings_over(wt) > 0.0, threshold
    # larger thresholds defer more (weakly fewer forced wake-ups ->
    # fewer disk writes) and leave more dirty data exposed
    assert results[1024].disk_writes <= results[4].disk_writes
    assert results[1024].pending_dirty >= results[4].pending_dirty
