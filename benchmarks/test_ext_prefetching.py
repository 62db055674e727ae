"""Extension — power-aware prefetching (the paper's future work §8).

Sequential read-ahead riding paid-for spin-ups, evaluated on the
scan-heavy Cello96-like workload: every converted miss is one fewer
future disk access, so idle periods stretch and response improves.
"""

from repro.analysis.tables import ascii_table
from repro.sim.runner import run_simulation
from repro.traces.cello import CelloTraceConfig, generate_cello_trace_columnar

DEPTHS = [0, 2, 4, 8, 16]


def sweep():
    trace = generate_cello_trace_columnar(CelloTraceConfig(duration_s=600.0))
    return [
        (
            depth,
            run_simulation(
                trace, "lru", num_disks=19, cache_blocks=4096,
                prefetch_depth=depth,
            ),
        )
        for depth in DEPTHS
    ]


def test_ext_prefetching(benchmark, report):
    rows_data = benchmark.pedantic(sweep, rounds=1, iterations=1)
    base = rows_data[0][1]
    rows = [
        [
            depth,
            f"{r.savings_over(base):+.1%}",
            f"{r.response.mean_s * 1000:.1f} ms",
            r.prefetch_admissions,
            f"{r.prefetch_accuracy:.0%}",
        ]
        for depth, r in rows_data
    ]
    report(
        "ext_prefetching",
        ascii_table(
            ["depth", "energy vs none", "mean response", "blocks prefetched",
             "accuracy"],
            rows,
            title="Extension — sequential wake prefetching (Cello96-like)",
        ),
    )

    results = dict(rows_data)
    # prefetching helps both energy and latency on a scan workload
    assert results[8].total_energy_j <= base.total_energy_j
    assert results[8].response.mean_s < base.response.mean_s
    # accuracy declines with depth (the classic read-ahead trade-off)
    assert results[16].prefetch_accuracy < results[2].prefetch_accuracy
    # and it converts real misses
    assert results[8].prefetch_hits > 0
