"""Table 3 — default synthetic trace parameters, and that the generator
realizes them.
"""

import pytest

from repro.analysis.tables import ascii_table
from repro.traces.stats import characterize
from repro.traces.synthetic import (
    SyntheticTraceConfig,
    generate_synthetic_trace_columnar,
)


def test_table3_synthetic_defaults(benchmark, report):
    config = SyntheticTraceConfig(num_requests=30_000)  # sampled subset
    trace = benchmark.pedantic(
        generate_synthetic_trace_columnar,
        args=(config,),
        rounds=1,
        iterations=1,
    )
    stats = characterize(trace)
    defaults = SyntheticTraceConfig()
    rows = [
        ["Request Number", f"{defaults.num_requests:,}", f"{len(trace):,} (sampled)"],
        ["Disk Number", defaults.num_disks, stats.disks],
        ["Exponential mean", f"{defaults.mean_interarrival_s*1000:.0f} ms",
         f"{stats.mean_interarrival_s*1000:.0f} ms"],
        ["Pareto shape", defaults.pareto_shape, "-"],
        ["Reuse probability", defaults.reuse_probability,
         f"{1 - stats.cold_fraction:.2f} (measured reuse)"],
        ["Write Ratio", defaults.write_ratio, f"{stats.write_fraction:.2f}"],
        ["Disk Size", "18 GB", "18 GB"],
        ["Sequential Access Probability", defaults.p_sequential, "-"],
        ["Local Access Probability", defaults.p_local, "-"],
        ["Random Access Probability",
         f"{1 - defaults.p_sequential - defaults.p_local:.1f}", "-"],
        ["Maximum Local Distance", f"{defaults.max_local_distance} blocks", "-"],
    ]
    report(
        "table3_synthetic_defaults",
        ascii_table(
            ["parameter", "configured", "measured"],
            rows,
            title="Table 3 — default synthetic trace parameters",
        ),
    )

    assert stats.disks == 20
    assert stats.write_fraction == pytest.approx(0.2, abs=0.02)
    assert stats.mean_interarrival_s == pytest.approx(0.25, rel=0.05)
    # reuse probability drives the reuse fraction of the address stream
    assert 1 - stats.cold_fraction == pytest.approx(0.8, abs=0.05)
