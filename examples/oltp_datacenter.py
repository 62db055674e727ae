#!/usr/bin/env python3
"""Data-center scenario: the paper's full replacement-policy study.

Runs the five cache policies of Figure 6 (infinite cache, Belady, OPG,
LRU, PA-LRU) over the 2-hour OLTP-like workload under both Oracle and
Practical disk power management, then prints the normalized energy
bars, the response-time comparison, and the per-disk story behind
PA-LRU's win (the Figure 7 breakdowns).

Run (takes a couple of minutes):
    python examples/oltp_datacenter.py
"""

from repro import generate_oltp_trace_columnar
from repro.analysis.figures import replacement_comparison, time_breakdown_comparison
from repro.analysis.tables import ascii_table
from repro.traces.oltp import OLTPTraceConfig

CACHE_BLOCKS = 2048
POLICIES = ("infinite", "belady", "opg", "lru", "pa-lru")


def main() -> None:
    print("generating the 2-hour OLTP-like trace...")
    trace = generate_oltp_trace_columnar()
    print(f"  {len(trace):,} requests\n")

    print("running 5 policies x 2 DPM schemes (10 simulations)...\n")
    results = replacement_comparison(
        trace, num_disks=21, cache_blocks=CACHE_BLOCKS
    )

    rows = []
    for dpm in ("oracle", "practical"):
        base = results[dpm]["lru"].total_energy_j
        rows.append(
            [dpm]
            + [f"{results[dpm][p].total_energy_j / base:.3f}" for p in POLICIES]
        )
    print(ascii_table(["DPM"] + list(POLICIES), rows,
                      title="Disk energy normalized to LRU (Figure 6a)"))
    print()

    base_rt = results["practical"]["lru"].response.mean_s
    rows = [
        [p, f"{results['practical'][p].response.mean_s * 1000:.0f} ms",
         f"{results['practical'][p].response.mean_s / base_rt:.2f}"]
        for p in POLICIES
    ]
    print(ascii_table(["policy", "mean response", "vs LRU"], rows,
                      title="Response time under Practical DPM (Figure 6c)"))
    print()

    lru, pa = results["practical"]["lru"], results["practical"]["pa-lru"]
    hot, cool = 0, OLTPTraceConfig().num_disks - 1
    breakdown = time_breakdown_comparison(lru, pa, [hot, cool])
    rows = [
        [r["disk"], r["policy"],
         f"{r['breakdown'].get('mode:0', 0):.0%}",
         f"{r['breakdown'].get('mode:5', 0):.0%}",
         f"{r['breakdown'].get('transition', 0):.0%}",
         f"{r['mean_interarrival_s']:.1f} s"]
        for r in breakdown
    ]
    print(ascii_table(
        ["disk", "policy", "full speed", "standby", "spin up/down",
         "mean inter-arrival"],
        rows,
        title=f"Why PA-LRU wins: hot disk {hot} vs cool disk {cool} "
        "(Figure 7)",
    ))


if __name__ == "__main__":
    main()
