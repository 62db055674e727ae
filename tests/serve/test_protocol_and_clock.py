"""Line-protocol grammar and the lockstep clock."""

import pytest

from repro.errors import ConfigurationError, ServeError
from repro.serve.clock import LockstepClock
from repro.serve.protocol import (
    format_err,
    format_ok,
    format_request,
    format_retry,
    parse_request_line,
    parse_response_line,
)


class TestRequestLine:
    def test_minimal_line(self):
        parsed = parse_request_line("REQ r1 3 4096")
        assert parsed.req_id == "r1"
        assert parsed.disk == 3 and parsed.block == 4096
        assert parsed.nblocks == 1 and parsed.is_write is False
        assert parsed.time is None

    def test_full_line_round_trip(self):
        line = format_request("r2", 1, 77, 8, True, 12.5)
        parsed = parse_request_line(line)
        assert parsed.nblocks == 8 and parsed.is_write is True
        assert parsed.time == 12.5
        req = parsed.to_request(stamp=99.0)
        assert req.time == 12.5  # explicit time wins over the stamp

    def test_wall_mode_takes_the_stamp(self):
        req = parse_request_line("REQ a 0 1 2 W").to_request(stamp=7.25)
        assert req.time == 7.25 and req.is_write and req.nblocks == 2

    def test_exact_float_round_trip(self):
        t = 0.1 + 0.2  # not exactly representable in decimal
        line = format_request("x", 0, 1, time=t)
        assert parse_request_line(line).time == t

    @pytest.mark.parametrize(
        "line",
        [
            "",
            "NOPE r1 0 1",
            "REQ r1 0",
            "REQ r1 0 1 2 X",
            "REQ r1 zero 1",
            "REQ r1 0 1 t=abc",
            "REQ r1 0 1 t=-5",
            "REQ r1 -1 1",
            "REQ r1 0 1 0",
            "REQ r1 0 1 2 R extra t=1",
        ],
    )
    def test_rejects_malformed_lines(self, line):
        with pytest.raises(ServeError):
            parse_request_line(line)

    @pytest.mark.parametrize("stamp", ["inf", "nan", "-inf"])
    def test_rejects_non_finite_explicit_time(self, stamp):
        with pytest.raises(ServeError, match="finite"):
            parse_request_line(f"REQ r1 0 1 1 R t={stamp}")


class TestResponseLine:
    def test_ok_round_trip(self):
        response = parse_response_line(format_ok("r1", 0.0125, 42.0))
        assert response.verb == "OK" and response.req_id == "r1"
        assert response.value == 0.0125 and response.sim_time == 42.0

    def test_retry_round_trip(self):
        response = parse_response_line(format_retry("r9", 0.25))
        assert response.verb == "RETRY" and response.value == 0.25

    def test_err_carries_the_message(self):
        response = parse_response_line(format_err("r3", "bad things here"))
        assert response.verb == "ERR" and response.req_id == "r3"
        assert "things" in response.message

    def test_pong(self):
        assert parse_response_line("PONG").verb == "PONG"

    def test_unknown_verb_raises(self):
        with pytest.raises(ServeError):
            parse_response_line("WHAT 1 2 3")


class TestLockstepClock:
    def test_dilation_scales_wall_time(self):
        wall = [100.0]
        clock = LockstepClock(10.0, now_fn=lambda: wall[0])
        assert clock.now() == 0.0
        wall[0] = 103.0
        assert clock.now() == 30.0

    def test_base_offsets_a_restored_daemon(self):
        wall = [5.0]
        clock = LockstepClock(2.0, base=1000.0, now_fn=lambda: wall[0])
        wall[0] = 6.0
        assert clock.now() == 1002.0

    def test_stamps_never_decrease(self):
        wall = [10.0]
        clock = LockstepClock(1.0, now_fn=lambda: wall[0])
        wall[0] = 20.0
        first = clock.now()
        wall[0] = 15.0  # platform clock misbehaves
        assert clock.now() == first

    def test_ratchet_floors_future_stamps(self):
        wall = [0.0]
        clock = LockstepClock(1.0, now_fn=lambda: wall[0])
        clock.ratchet(500.0)
        assert clock.floor == 500.0
        wall[0] = 1.0
        assert clock.now() == 500.0  # wall has not caught up yet
        assert clock.stamp(floor=600.0) == 600.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            LockstepClock(0.0)
        with pytest.raises(ConfigurationError):
            LockstepClock(1.0, base=-1.0)
