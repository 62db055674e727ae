"""Robustness — the Figure 6(a) ordering across workload seeds.

The headline comparison must not hinge on one lucky trace: this bench
regenerates the OLTP-like workload under several seeds and checks that
the policy ordering (infinite <= OPG < Belady < PA-LRU < LRU) and the
PA-LRU savings band survive every one.
"""

from repro.analysis.tables import ascii_table
from repro.sim.runner import run_simulation
from repro.traces.oltp import OLTPTraceConfig, generate_oltp_trace_columnar
from benchmarks.conftest import OLTP_CACHE_BLOCKS

SEEDS = (7, 101, 2026)
POLICIES = ("infinite", "belady", "opg", "lru", "pa-lru")


def sweep():
    table = {}
    for seed in SEEDS:
        trace = generate_oltp_trace_columnar(OLTPTraceConfig(seed=seed))
        runs = {
            policy: run_simulation(
                trace, policy, num_disks=21, cache_blocks=OLTP_CACHE_BLOCKS
            )
            for policy in POLICIES
        }
        base = runs["lru"].total_energy_j
        table[seed] = {
            policy: runs[policy].total_energy_j / base for policy in POLICIES
        }
        table[seed]["resp"] = (
            runs["pa-lru"].response.mean_s / runs["lru"].response.mean_s
        )
    return table


def test_robustness_across_seeds(benchmark, report):
    table = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [
        [seed]
        + [f"{table[seed][p]:.3f}" for p in POLICIES]
        + [f"{table[seed]['resp']:.2f}"]
        for seed in SEEDS
    ]
    report(
        "robustness_seeds",
        ascii_table(
            ["seed"] + list(POLICIES) + ["PA resp/LRU"],
            rows,
            title="Robustness — Figure 6(a) normalized energy across "
            "OLTP workload seeds (Practical DPM)",
        ),
    )

    for seed in SEEDS:
        norm = table[seed]
        assert norm["infinite"] <= norm["opg"] + 1e-6, seed
        assert norm["opg"] < norm["belady"], seed
        assert norm["belady"] < norm["pa-lru"], seed
        assert 0.75 < norm["pa-lru"] < 0.92, seed
        assert norm["resp"] < 0.9, seed
