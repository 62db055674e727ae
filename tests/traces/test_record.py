"""Tests for trace records."""

import pytest

from repro.errors import TraceError
from repro.traces.record import IORequest, validate_trace


class TestIORequest:
    def test_block_keys_single(self):
        req = IORequest(time=1.0, disk=2, block=5)
        assert req.block_keys() == [(2, 5)]

    def test_block_keys_multi(self):
        req = IORequest(time=1.0, disk=0, block=10, nblocks=3)
        assert req.block_keys() == [(0, 10), (0, 11), (0, 12)]

    def test_validation(self):
        with pytest.raises(TraceError):
            IORequest(time=-1.0, disk=0, block=0)
        with pytest.raises(TraceError):
            IORequest(time=0.0, disk=-1, block=0)
        with pytest.raises(TraceError):
            IORequest(time=0.0, disk=0, block=-5)
        with pytest.raises(TraceError):
            IORequest(time=0.0, disk=0, block=0, nblocks=0)

    @pytest.mark.parametrize("time", [float("nan"), float("inf")])
    def test_non_finite_time_rejected(self, time):
        with pytest.raises(TraceError, match="finite"):
            IORequest(time=time, disk=0, block=0)

    def test_frozen(self):
        req = IORequest(time=0.0, disk=0, block=0)
        with pytest.raises(AttributeError):
            req.time = 5.0


class TestValidateTrace:
    def test_ordered_passes(self, tiny_trace):
        validate_trace(tiny_trace)

    def test_disordered_rejected(self):
        trace = [
            IORequest(time=2.0, disk=0, block=0),
            IORequest(time=1.0, disk=0, block=1),
        ]
        with pytest.raises(TraceError):
            validate_trace(trace)

