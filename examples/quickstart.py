#!/usr/bin/env python3
"""Quickstart: is power-aware caching worth it on your workload?

Generates a small OLTP-like workload (20 minutes, 21 disks), runs the
plain LRU storage cache and the paper's PA-LRU against the same
multi-speed disk array, and reports energy and response time.

Run:
    python examples/quickstart.py
"""

from repro import OLTPTraceConfig, generate_oltp_trace_columnar, run_simulation

CACHE_BLOCKS = 2048  # 16 MiB of 8 KiB blocks


def main() -> None:
    print("generating workload (40 simulated minutes, 21 disks)...")
    trace = generate_oltp_trace_columnar(OLTPTraceConfig(duration_s=2400.0))
    print(f"  {len(trace):,} requests\n")

    results = {}
    for policy in ("lru", "pa-lru"):
        print(f"simulating {policy} ...")
        # a 5-minute classification epoch suits the short demo trace;
        # the paper uses 15 minutes against its 2-hour trace
        results[policy] = run_simulation(
            trace,
            policy,
            num_disks=21,
            cache_blocks=CACHE_BLOCKS,
            dpm="practical",
            pa_epoch_s=300.0,
        )

    lru, pa = results["lru"], results["pa-lru"]
    print()
    print(lru.summary())
    print(pa.summary())
    print()
    print(f"PA-LRU energy savings over LRU : {pa.savings_over(lru):6.1%}")
    print(
        "PA-LRU mean response vs LRU    : "
        f"{pa.response.mean_s / lru.response.mean_s:6.2f}x"
    )
    print(f"spin-ups avoided               : {lru.spinups - pa.spinups}")


if __name__ == "__main__":
    main()
