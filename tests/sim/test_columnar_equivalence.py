"""Columnar fast loops vs the ``handle_request`` reference: bit-identical.

The engine's columnar loops (generic, fused PA-LRU, fused OPG, and the
``submit_quick`` / ``account_idle`` paths beneath them) must reproduce
the object-per-request reference exactly — not approximately. A list
trace, like a probe-attached run, goes row by row through
``handle_request``. These tests run the golden policies through both
and compare the fully serialized results, so any float that drifts by
one ulp fails the suite.
"""

import json

import pytest

from repro.errors import TraceError
from repro.sim.runner import POLICY_NAMES, WRITE_POLICY_NAMES, run_simulation
from repro.traces.columnar import ColumnarTrace
from repro.traces.synthetic import (
    SyntheticTraceConfig,
    generate_synthetic_trace_columnar,
)
from repro.traces.zoo import CDNTraceConfig, generate_cdn_trace

TRACE_CONFIG = SyntheticTraceConfig(
    num_requests=4000, num_disks=5, seed=97, write_ratio=0.25
)

GOLDEN_RUNS = {
    "lru": {"policy": "lru"},
    "pa-lru": {"policy": "pa-lru", "pa_epoch_s": 120.0},
    "opg-theta0": {"policy": "opg", "theta": 0.0},
}

COMMON_KWARGS = {"num_disks": 5, "cache_blocks": 256, "dpm": "practical"}


def _serialized(trace, **kwargs):
    kwargs = {**COMMON_KWARGS, **kwargs}
    policy = kwargs.pop("policy")
    result = run_simulation(trace, policy, **kwargs)
    return json.dumps(result.to_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def traces():
    reference = generate_synthetic_trace_columnar(TRACE_CONFIG).to_requests()
    columnar = generate_synthetic_trace_columnar(TRACE_CONFIG)
    return reference, columnar


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_config_byte_identical(traces, name):
    reference, columnar = traces
    kwargs = GOLDEN_RUNS[name]
    assert _serialized(reference, **kwargs) == _serialized(columnar, **kwargs)


def _policy_cases(values):
    """``(golden run, value)`` pairs for every golden policy.

    The ``lru`` cases keep the bare value as their id, as they had
    before the other policies joined the parametrization.
    """
    return [
        pytest.param(
            name, value, id=value if name == "lru" else f"{name}-{value}"
        )
        for name in sorted(GOLDEN_RUNS)
        for value in values
    ]


@pytest.mark.parametrize(
    "name, dpm",
    _policy_cases(["always_on", "oracle", "practical", "adaptive"]),
)
def test_dpm_schemes_byte_identical(traces, name, dpm):
    reference, columnar = traces
    kwargs = {**GOLDEN_RUNS[name], "dpm": dpm}
    assert _serialized(reference, **kwargs) == _serialized(columnar, **kwargs)


@pytest.mark.parametrize(
    "name, write_policy",
    _policy_cases(
        ["write-back", "write-through", "wbeu", "periodic-flush", "wtdu"]
    ),
)
def test_write_policies_byte_identical(traces, name, write_policy):
    reference, columnar = traces
    kwargs = {**GOLDEN_RUNS[name], "write_policy": write_policy}
    assert _serialized(reference, **kwargs) == _serialized(columnar, **kwargs)


def test_from_requests_matches_generator(traces):
    """Converting the reference trace gives the same results as generating
    the columns directly."""
    reference, _ = traces
    converted = ColumnarTrace.from_requests(reference)
    assert _serialized(reference, policy="lru") == _serialized(
        converted, policy="lru"
    )


def test_traced_columnar_loop_matches_fast_loop(traces):
    """With an event probe attached, a columnar trace runs row by row
    through ``handle_request``; the simulated numbers must not depend
    on which loop ran. Covers the generic, fused PA-LRU and fused OPG
    loops, and the generic loop on a multi-block CDN trace."""
    _, columnar = traces
    cdn = generate_cdn_trace(
        CDNTraceConfig(duration_s=12.0, num_disks=5, write_ratio=0.2, seed=11)
    )
    assert int(cdn.nblocks.max()) > 1
    cases = [(name, columnar, kwargs) for name, kwargs in GOLDEN_RUNS.items()]
    cases.append(("cdn-lru", cdn, {"policy": "lru"}))
    for name, trace, kwargs in cases:
        a = json.loads(_serialized(trace, trace_events=True, **kwargs))
        b = json.loads(_serialized(trace, **kwargs))
        # the probe adds its own summary section
        assert a.pop("trace_metrics") is not None
        b.pop("trace_metrics", None)
        assert a == b, name


# -- multi-block requests ---------------------------------------------------

#: A small cache and short PA epochs, so the multi-block cases evict,
#: write back and reclassify within the short CDN trace.
MULTIBLOCK_KWARGS = {"cache_blocks": 128, "pa_epoch_s": 1.0}


@pytest.fixture(scope="module")
def cdn_traces():
    columnar = generate_cdn_trace(
        CDNTraceConfig(duration_s=5.0, num_disks=5, write_ratio=0.2, seed=11)
    )
    assert int(columnar.nblocks.max()) > 1
    return columnar.to_requests(), columnar


def _assert_multiblock_identical(cdn_traces, **kwargs):
    reference, columnar = cdn_traces
    kwargs = {**MULTIBLOCK_KWARGS, **kwargs}
    assert _serialized(reference, **kwargs) == _serialized(columnar, **kwargs)


@pytest.mark.parametrize("write_policy", WRITE_POLICY_NAMES)
@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_multiblock_policies_byte_identical(cdn_traces, policy, write_policy):
    """Every policy and write policy on a multi-block trace: the fast
    loops run each request as its blocks' accesses in block order and
    answer with the slowest, as ``handle_request`` does."""
    _assert_multiblock_identical(
        cdn_traces, policy=policy, write_policy=write_policy
    )


@pytest.mark.parametrize("dpm", ["oracle", "always_on", "adaptive"])
@pytest.mark.parametrize("policy", ["lru", "pa-lru", "opg"])
def test_multiblock_dpm_schemes_byte_identical(cdn_traces, policy, dpm):
    _assert_multiblock_identical(cdn_traces, policy=policy, dpm=dpm)


@pytest.mark.parametrize(
    "policy", [p for p in POLICY_NAMES if p not in ("belady", "opg")]
)
def test_multiblock_prefetch_byte_identical(cdn_traces, policy):
    _assert_multiblock_identical(cdn_traces, policy=policy, prefetch_depth=4)


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_disordered_columnar_trace_rejected_before_any_request(name):
    """The fast loops and the probe-attached reference reject a
    disordered columnar trace with the same error, before any request
    is simulated."""
    trace = ColumnarTrace(
        [0.0, 1.0, 3.0, 2.0, 4.0], [0, 1, 0, 1, 0], [1, 2, 3, 4, 5],
        [1] * 5, [False, True, False, False, True],
    )
    kwargs = {**COMMON_KWARGS, **GOLDEN_RUNS[name]}
    policy = kwargs.pop("policy")
    events = []
    messages = []
    for probe in (None, events.append):
        with pytest.raises(TraceError) as excinfo:
            run_simulation(trace, policy, probe=probe, **kwargs)
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1] == (
        "trace not time-ordered at t=2.0 (< 3.0)"
    )
    # rejected before the run starts: not even SimulationStart went out
    assert events == []


BAD_ROWS = {
    # column -> (value at row 2, the columnar run's message)
    "disks": (-1, "trace row 2: disk -1 is not in the 5-disk array"),
    "blocks": (-5, "trace row 2: block must be >= 0, got -5"),
    "nblocks": (0, "trace row 2: nblocks must be >= 1, got 0"),
    "too_far": (5, "trace row 2: disk 5 is not in the 5-disk array"),
}


def _with_bad_row(column):
    value = BAD_ROWS[column][0]
    cols = {
        "times": [0.0, 1.0, 2.0, 3.0],
        "disks": [0, 1, 2, 3],
        "blocks": [1, 2, 3, 4],
        "nblocks": [1, 2, 1, 1],
        "is_write": [False, True, False, True],
    }
    cols["disks" if column == "too_far" else column][2] = value
    return ColumnarTrace(**cols)


@pytest.mark.parametrize("column", sorted(BAD_ROWS))
@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_a_bad_row_is_rejected_before_any_request(name, column):
    """A row the ``IORequest`` constructor would reject, or whose disk
    is not in the array, fails every columnar run with a
    ``TraceError`` naming it, before any request is simulated. The
    reference rejects the same rows: the constructor when the rows
    become requests, the run for a disk past the array, with the
    columnar run's message."""
    trace = _with_bad_row(column)
    kwargs = {**COMMON_KWARGS, **GOLDEN_RUNS[name]}
    policy = kwargs.pop("policy")
    message = BAD_ROWS[column][1]
    events = []
    for probe in (None, events.append):
        with pytest.raises(TraceError) as excinfo:
            run_simulation(trace, policy, probe=probe, **kwargs)
        assert str(excinfo.value) == message
    assert events == []
    if column == "too_far":
        with pytest.raises(TraceError) as excinfo:
            run_simulation(trace.to_requests(), policy, **kwargs)
        assert str(excinfo.value) == message
    else:
        with pytest.raises(TraceError):
            trace.to_requests()
