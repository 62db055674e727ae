"""Differential test: tracing must not perturb campaign determinism.

A traced campaign grid executed serially and the same grid executed by
a two-worker process pool must produce byte-identical serialized
results — same energies, same latencies, same ``trace_metrics``
counters — proving the observability layer is a pure observer (no
hidden state leaks into the simulation) and that metrics survive the
pickle boundary intact.
"""

import json

import pytest

from repro.sim.sweep import grid_sweep
from repro.traces.synthetic import (
    SyntheticTraceConfig,
    generate_synthetic_trace_columnar,
)

AXES = {
    "policy": ["lru", "fifo", "pa-lru"],
    "write_policy": ["write-back", "wtdu"],
}


@pytest.fixture(scope="module")
def trace():
    return generate_synthetic_trace_columnar(
        SyntheticTraceConfig(num_requests=1500, num_disks=4, seed=31)
    ).to_requests()


def canonical(sweep):
    """Byte-exact serialized form of every grid point, in grid order."""
    return [
        json.dumps(point.result.to_dict(), sort_keys=True)
        for point in sweep.points
    ]


@pytest.mark.slow
def test_serial_and_parallel_traced_runs_are_byte_identical(trace):
    kwargs = dict(
        axes=AXES, num_disks=4, cache_blocks=64,
        pa_epoch_s=120.0, trace_events=True,
    )
    serial = grid_sweep(trace, workers=1, **kwargs)
    parallel = grid_sweep(trace, workers=2, **kwargs)
    assert len(serial.points) == 6
    serial_bytes = canonical(serial)
    parallel_bytes = canonical(parallel)
    for s, p, point in zip(serial_bytes, parallel_bytes, serial.points):
        assert s == p, f"records diverge at {point.params}"
    # and tracing itself did not change the physics: an untraced serial
    # run reports the same headline numbers
    untraced = grid_sweep(
        trace, axes=AXES, num_disks=4, cache_blocks=64,
        pa_epoch_s=120.0, workers=1,
    )
    for traced, plain in zip(serial.points, untraced.points):
        assert traced.result.total_energy_j == plain.result.total_energy_j
        assert traced.result.response == plain.result.response
        assert traced.result.cache_hits == plain.result.cache_hits


@pytest.mark.slow
def test_trace_metrics_survive_the_result_store(trace, tmp_path):
    from repro.campaign.store import ResultStore

    store = ResultStore(tmp_path / "store")
    kwargs = dict(
        axes={"policy": ["lru"]}, num_disks=4, cache_blocks=64,
        trace_events=True,
    )
    first = grid_sweep(trace, store=store, **kwargs)
    second = grid_sweep(trace, store=store, **kwargs)  # served from cache
    a, b = first.points[0].result, second.points[0].result
    assert a.trace_metrics is not None
    assert a.to_dict() == b.to_dict()
