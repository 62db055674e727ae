"""Shared definition of the golden regression runs.

Three small, fully seeded synthetic configurations — classic LRU, the
paper's PA-LRU, and OPG at θ=0 (pure energy objective) — whose headline
numbers are pinned as JSON in ``fixtures/golden.json``. The test
(:mod:`tests.integration.test_golden`) re-runs each configuration and
compares against the fixture; any drift in the simulator's physics,
cache logic, or accounting shows up as a diff against known-good
numbers.

Regenerating the fixture (ONLY after an intentional behavior change,
with the diff reviewed and explained in the commit message)::

    PYTHONPATH=src python tests/integration/regen_golden.py
"""

from pathlib import Path

from repro import (
    SyntheticTraceConfig,
    generate_synthetic_trace_columnar,
    run_simulation,
)

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "golden.json"

TRACE_CONFIG = SyntheticTraceConfig(
    num_requests=4000, num_disks=5, seed=97, write_ratio=0.25
)

#: name -> run_simulation keyword arguments (trace injected separately).
GOLDEN_RUNS = {
    "lru": {"policy": "lru"},
    "pa-lru": {"policy": "pa-lru", "pa_epoch_s": 120.0},
    "opg-theta0": {"policy": "opg", "theta": 0.0},
}

COMMON_KWARGS = {"num_disks": 5, "cache_blocks": 256, "dpm": "practical"}


def run_golden(name):
    """Execute one golden configuration; returns its pinned snapshot."""
    trace = generate_synthetic_trace_columnar(TRACE_CONFIG).to_requests()
    kwargs = {**COMMON_KWARGS, **GOLDEN_RUNS[name]}
    policy = kwargs.pop("policy")
    result = run_simulation(trace, policy, trace_events=True, **kwargs)
    return {
        "total_energy_j": result.total_energy_j,
        "disk_energy_j": result.disk_energy_j,
        "per_disk_energy_j": {
            str(d.disk_id): d.account.total_energy_j for d in result.disks
        },
        "mean_response_s": result.response.mean_s,
        "p95_response_s": result.response.p95_s,
        "max_response_s": result.response.max_s,
        "cache_hits": result.cache_hits,
        "cache_misses": result.cache_misses,
        "evictions": result.evictions,
        "disk_reads": result.disk_reads,
        "disk_writes": result.disk_writes,
        "spinups": result.spinups,
        "spindowns": result.spindowns,
        "event_counts": result.trace_metrics["events"],
    }
