"""Tests for the cheap deterministic trace fingerprint."""

from repro.traces.fingerprint import trace_fingerprint
from repro.traces.record import IORequest
from repro.traces.synthetic import (
    SyntheticTraceConfig,
    generate_synthetic_trace_columnar,
)


def make_trace(n=200, seed=3):
    return generate_synthetic_trace_columnar(
        SyntheticTraceConfig(num_requests=n, num_disks=3, seed=seed)
    ).to_requests()


class TestTraceFingerprint:
    def test_deterministic(self):
        trace = make_trace()
        assert trace_fingerprint(trace) == trace_fingerprint(trace)

    def test_equal_traces_equal_fingerprints(self):
        assert trace_fingerprint(make_trace()) == trace_fingerprint(make_trace())

    def test_different_seeds_differ(self):
        assert trace_fingerprint(make_trace(seed=3)) != trace_fingerprint(
            make_trace(seed=4)
        )

    def test_single_record_change_detected(self):
        trace = make_trace()
        mutated = list(trace)
        victim = mutated[len(mutated) // 2]
        mutated[len(mutated) // 2] = IORequest(
            time=victim.time,
            disk=victim.disk,
            block=victim.block + 1,
            nblocks=victim.nblocks,
            is_write=victim.is_write,
        )
        assert trace_fingerprint(trace) != trace_fingerprint(mutated)

    def test_truncation_detected(self):
        trace = make_trace()
        assert trace_fingerprint(trace) != trace_fingerprint(trace[:-1])

    def test_reordering_detected(self):
        a = IORequest(time=1.0, disk=0, block=10)
        b = IORequest(time=1.0, disk=1, block=20)
        assert trace_fingerprint([a, b]) != trace_fingerprint([b, a])

    def test_write_flag_detected(self):
        read = [IORequest(time=0.0, disk=0, block=1, is_write=False)]
        write = [IORequest(time=0.0, disk=0, block=1, is_write=True)]
        assert trace_fingerprint(read) != trace_fingerprint(write)

    def test_empty_trace_is_stable(self):
        assert trace_fingerprint([]) == trace_fingerprint([])
        assert trace_fingerprint([]) != trace_fingerprint(make_trace())

    def test_hex_sha256_shape(self):
        fp = trace_fingerprint(make_trace())
        assert len(fp) == 64
        int(fp, 16)  # parses as hex
