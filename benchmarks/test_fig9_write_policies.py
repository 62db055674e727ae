"""Figure 9 — effect of write policies on disk energy consumption.

Six panels, all savings relative to write-through under Practical DPM:

* (a1)(b1)(c1): WB / WBEU / WTDU vs write ratio 0→1 at 250 ms mean
  inter-arrival, exponential and Pareto traffic.
* (a2)(b2)(c2): the same policies vs mean inter-arrival 10 ms→10 s at
  write ratio 0.5.

Expected shapes: savings grow with write ratio (WB up to ~20%+ at 100%
writes; WBEU and WTDU far larger); along the inter-arrival sweep the
benefit vanishes at 10 ms (disks never idle), peaks in the middle, and
shrinks at 10 s (disks sleep regardless); Pareto traffic flattens the
curves (bursts amortize spin-ups for write-through too).
"""

import pytest

from repro.analysis.figures import write_policy_sweep
from repro.analysis.tables import ascii_table
from repro.traces.synthetic import (
    SyntheticTraceConfig,
    generate_synthetic_trace_columnar,
)

WRITE_RATIOS = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
INTERARRIVALS_MS = [10, 50, 100, 250, 1000, 5000, 10000]
NUM_REQUESTS = 25_000
CACHE_BLOCKS = 2048
POLICIES = ("write-back", "wbeu", "wtdu")


def make_trace_factory(arrival_process):
    def make_trace(write_ratio=0.5, mean_interarrival_s=0.25):
        return generate_synthetic_trace_columnar(
            SyntheticTraceConfig(
                num_requests=NUM_REQUESTS,
                arrival_process=arrival_process,
                write_ratio=write_ratio,
                mean_interarrival_s=mean_interarrival_s,
                seed=31,
            )
        )

    return make_trace


def render(curves_by_traffic, x_label, fmt):
    rows = []
    for traffic, curves in curves_by_traffic.items():
        xs = [x for x, _ in curves[POLICIES[0]]]
        for i, x in enumerate(xs):
            rows.append(
                [traffic, fmt(x)]
                + [f"{curves[p][i][1]:+.1%}" for p in POLICIES]
            )
    return rows


@pytest.fixture(scope="module")
def ratio_curves():
    return {
        traffic: write_policy_sweep(
            make_trace_factory(traffic),
            WRITE_RATIOS,
            "write_ratio",
            num_disks=20,
            cache_blocks=CACHE_BLOCKS,
        )
        for traffic in ("exponential", "pareto")
    }


@pytest.fixture(scope="module")
def interarrival_curves():
    return {
        traffic: write_policy_sweep(
            make_trace_factory(traffic),
            [ms / 1000.0 for ms in INTERARRIVALS_MS],
            "mean_interarrival_s",
            num_disks=20,
            cache_blocks=CACHE_BLOCKS,
        )
        for traffic in ("exponential", "pareto")
    }


def test_fig9_1_savings_vs_write_ratio(benchmark, report, ratio_curves):
    benchmark.pedantic(
        lambda: write_policy_sweep(
            make_trace_factory("exponential"),
            [0.5],
            "write_ratio",
            num_disks=20,
            cache_blocks=CACHE_BLOCKS,
            policies=("write-back",),
        ),
        rounds=1,
        iterations=1,
    )
    rows = render(ratio_curves, "write ratio", lambda x: f"{x:.1f}")
    report(
        "fig9_1_write_ratio",
        ascii_table(
            ["traffic", "write ratio", "WB vs WT", "WBEU vs WT", "WTDU vs WT"],
            rows,
            title="Figure 9(a1)(b1)(c1) — energy savings over "
            "write-through vs write ratio (250 ms inter-arrival)",
        ),
    )

    for traffic in ("exponential", "pareto"):
        curves = ratio_curves[traffic]
        # no writes -> no difference
        for policy in POLICIES:
            assert abs(curves[policy][0][1]) < 0.02, (traffic, policy)
        # savings grow with write ratio for every policy
        for policy in POLICIES:
            first = curves[policy][1][1]
            last = curves[policy][-1][1]
            assert last > first, (traffic, policy)
        # at 100% writes: WB saves real energy; WBEU and WTDU far more
        wb, wbeu, wtdu = (curves[p][-1][1] for p in POLICIES)
        assert wb > 0.10
        assert wbeu > wb
        assert wtdu > wb
        assert wtdu > 0.40


def test_fig9_2_savings_vs_interarrival(benchmark, report, interarrival_curves):
    benchmark.pedantic(
        lambda: interarrival_curves["exponential"]["write-back"],
        rounds=1,
        iterations=1,
    )
    rows = render(
        interarrival_curves, "interarrival", lambda x: f"{x * 1000:.0f} ms"
    )
    report(
        "fig9_2_interarrival",
        ascii_table(
            ["traffic", "interarrival", "WB vs WT", "WBEU vs WT",
             "WTDU vs WT"],
            rows,
            title="Figure 9(a2)(b2)(c2) — energy savings over "
            "write-through vs mean inter-arrival (write ratio 0.5)",
        ),
    )

    for traffic in ("exponential", "pareto"):
        curves = interarrival_curves[traffic]
        for policy in POLICIES:
            xs = [x for x, _ in curves[policy]]
            ys = [y for _, y in curves[policy]]
            # vanishing benefit when disks are never idle (10 ms)...
            assert abs(ys[0]) < 0.05, (traffic, policy)
            # ...a real peak in the middle...
            peak = max(ys)
            assert peak > 0.10, (traffic, policy)
            # ...and decline at the sleepy end (10 s)
            assert ys[-1] < peak, (traffic, policy)
