"""Tests for the energy envelopes (Figures 2 and 4) and thresholds."""

import math

import pytest


class TestLines:
    def test_mode0_line_through_origin(self, envelope):
        assert envelope.line_energy(0, 0.0) == 0.0
        assert envelope.line_energy(0, 10.0) == pytest.approx(102.0)

    def test_line_slope_is_power(self, envelope, model):
        for i in range(len(model)):
            e1 = envelope.line_energy(i, 10.0)
            e2 = envelope.line_energy(i, 20.0)
            assert (e2 - e1) / 10.0 == pytest.approx(model[i].power_w)

    def test_feasibility_cutoff(self, envelope, model):
        standby = model.deepest_mode
        too_short = standby.round_trip_time_s * 0.99
        assert math.isinf(envelope.mode_energy(standby.index, too_short))
        assert math.isfinite(
            envelope.mode_energy(standby.index, standby.round_trip_time_s)
        )

    def test_mode0_always_feasible(self, envelope):
        assert envelope.mode_energy(0, 0.0) == 0.0


class TestMinEnergy:
    def test_short_gap_stays_idle(self, envelope, model):
        # below the first break-even, staying in mode 0 is optimal
        t = envelope.breakeven_time(1) * 0.5
        assert envelope.min_energy(t) == pytest.approx(model[0].power_w * t)
        assert envelope.best_mode(t) == 0

    def test_long_gap_goes_standby(self, envelope, model):
        assert envelope.best_mode(3600.0) == len(model) - 1

    def test_envelope_below_all_lines(self, envelope, model):
        for t in (0.5, 2.0, 7.0, 12.0, 30.0, 100.0, 1000.0):
            lower = envelope.min_energy(t)
            for i in range(len(model)):
                assert lower <= envelope.mode_energy(i, t) + 1e-9

    def test_monotone_nondecreasing(self, envelope):
        previous = 0.0
        for k in range(1, 400):
            t = k * 0.5
            e = envelope.min_energy(t)
            assert e >= previous - 1e-9
            previous = e

    def test_concave_increments(self, envelope):
        # increments E(t+d) - E(t) shrink with t: concavity, the key
        # property behind OPG's lazy-heap correctness
        d = 3.0
        increments = [
            envelope.min_energy(t + d) - envelope.min_energy(t)
            for t in (1.0, 6.0, 12.0, 18.0, 30.0, 60.0, 120.0)
        ]
        for a, b in zip(increments, increments[1:]):
            assert b <= a + 1e-9

    def test_negative_interval_rejected(self, envelope):
        with pytest.raises(ValueError):
            envelope.min_energy(-1.0)


class TestSavings:
    def test_savings_zero_for_mode0(self, envelope):
        assert envelope.savings(0, 100.0) == 0.0

    def test_max_savings_never_negative(self, envelope):
        for t in (0.0, 1.0, 5.0, 20.0, 500.0):
            assert envelope.max_savings(t) >= 0.0

    def test_max_savings_superlinear(self, envelope):
        # Figure 4's point: savings grow faster than linearly through
        # the interesting region (each extra second of idle saves more)
        s10 = envelope.max_savings(10.0)
        s40 = envelope.max_savings(40.0)
        assert s40 > 4.0 * s10

    def test_savings_plus_energy_is_mode0_line(self, envelope, model):
        for i in range(1, len(model)):
            t = model[i].round_trip_time_s + 20.0
            total = envelope.savings(i, t) + envelope.mode_energy(i, t)
            assert total == pytest.approx(envelope.line_energy(0, t))


class TestBreakeven:
    def test_mode0_breakeven_zero(self, envelope):
        assert envelope.breakeven_time(0) == 0.0

    def test_breakeven_indifference(self, envelope, model):
        # at the break-even, parking costs the same as staying idle
        for i in range(1, len(model)):
            t = envelope.breakeven_time(i)
            idle = model[0].power_w * t
            parked = envelope.mode_energy(i, t)
            assert parked <= idle + 1e-9
            assert parked == pytest.approx(idle, rel=1e-6) or t == pytest.approx(
                model[i].round_trip_time_s
            )

    def test_breakeven_increases_with_depth(self, envelope, model):
        times = [envelope.breakeven_time(i) for i in range(1, len(model))]
        assert times == sorted(times)

    def test_nap1_breakeven_value(self, envelope):
        # the paper's PA threshold T: analytic value for Table 1 numbers
        assert envelope.breakeven_time(1) == pytest.approx(5.275, abs=0.01)


class TestPracticalThresholds:
    def test_ladder_is_increasing(self, envelope):
        thresholds = envelope.practical_thresholds()
        times = [t for t, _ in thresholds]
        assert times == sorted(times)
        assert all(t > 0 for t in times)

    def test_all_modes_on_ladder(self, envelope, model):
        modes = [m for _, m in envelope.practical_thresholds()]
        assert modes == list(range(1, len(model)))

    def test_thresholds_are_line_intersections(self, envelope):
        for t, mode in envelope.practical_thresholds():
            # at the threshold, the previous and new lines cross
            assert envelope.line_energy(mode, t) == pytest.approx(
                envelope.line_energy(mode - 1, t), rel=1e-9
            )

    def test_segments_cover_all_time(self, envelope):
        segments = envelope.segments
        assert segments[0].start_t == 0.0
        assert math.isinf(segments[-1].end_t)
        for a, b in zip(segments, segments[1:]):
            assert a.end_t == b.start_t
