#!/usr/bin/env python3
"""Spin-up cost sensitivity (Figure 8) on a reduced workload.

How robust is PA-LRU's advantage to the disk's transition cost? Sweeps
the standby→active spin-up energy and prints the savings curve with an
ASCII bar per point.

Run:
    python examples/spinup_sensitivity.py
"""

from repro import OLTPTraceConfig, generate_oltp_trace_columnar
from repro.analysis.figures import spinup_cost_sweep

COSTS = [33.75, 67.5, 135.0, 270.0, 675.0]
CACHE_BLOCKS = 2048


def main() -> None:
    print("generating a 1-hour OLTP-like trace...")
    trace = generate_oltp_trace_columnar(OLTPTraceConfig(duration_s=3600.0))
    print(f"  {len(trace):,} requests\n")
    print("sweeping spin-up cost (2 simulations per point)...\n")
    points = spinup_cost_sweep(
        trace, num_disks=21, cache_blocks=CACHE_BLOCKS, spinup_costs_j=COSTS
    )
    print("spin-up cost    PA-LRU savings over LRU")
    for cost, saving in points:
        bar = "#" * max(0, round(saving * 100))
        marker = "  <- IBM Ultrastar 36Z15" if cost == 135.0 else ""
        print(f"{cost:10.2f} J   {saving:6.1%}  {bar}{marker}")
    print(
        "\nThe paper's observation: savings are stable across the "
        "67.5-270 J band\nwhere real SCSI disks live, and shrink at "
        "both extremes."
    )


if __name__ == "__main__":
    main()
