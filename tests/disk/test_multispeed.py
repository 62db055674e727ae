"""Tests for the serve-at-all-speeds (DRPM-style) disk."""

import pytest

from repro.disk.disk import SimulatedDisk
from repro.disk.multispeed import AllSpeedServiceDisk
from repro.errors import ConfigurationError
from repro.power.dpm import OracleDPM, PracticalDPM
from repro.power.specs import ULTRASTAR_36Z15, build_power_model


def make_disk(**kwargs):
    model = build_power_model(ULTRASTAR_36Z15)
    return AllSpeedServiceDisk(
        disk_id=0,
        spec=ULTRASTAR_36Z15,
        power_model=model,
        dpm=PracticalDPM(model),
        **kwargs,
    )


def make_reference():
    model = build_power_model(ULTRASTAR_36Z15)
    return SimulatedDisk(
        disk_id=0,
        spec=ULTRASTAR_36Z15,
        power_model=model,
        dpm=PracticalDPM(model),
    )


class TestAllSpeedServiceDisk:
    def test_requires_practical_dpm(self):
        model = build_power_model(ULTRASTAR_36Z15)
        with pytest.raises(ConfigurationError):
            AllSpeedServiceDisk(
                disk_id=0,
                spec=ULTRASTAR_36Z15,
                power_model=model,
                dpm=OracleDPM(model),
            )

    def test_no_wake_delay_at_nap_speeds(self):
        disk = make_disk()
        disk.submit(0.0, 100)
        # 12 s idle: a full-speed-only disk would be in NAP2 and pay a
        # multi-second spin-up; the all-speed disk serves immediately
        response = disk.submit(12.0, 200)
        assert response.wake_delay_s == 0.0
        assert disk.slow_services == 1

    def test_slow_service_is_slower(self):
        fast = make_reference()
        slow = make_disk()
        r_fast = fast.submit(0.0, 100)
        r_slow = slow.submit(0.0, 100)
        assert r_slow.breakdown.total_s == pytest.approx(
            r_fast.breakdown.total_s
        )  # both start at full speed
        fast.submit(12.0, 100)
        slow2 = slow.submit(12.0, 100)
        # reduced-speed service: transfer takes longer than full speed
        assert slow2.breakdown.transfer_s > r_slow.breakdown.transfer_s

    def test_standby_still_pays_spinup(self):
        disk = make_disk()
        disk.submit(0.0, 100)
        response = disk.submit(500.0, 100)  # long gap: spindle stopped
        assert response.wake_delay_s == pytest.approx(10.9)

    def test_burst_ramps_back_to_full_speed(self):
        disk = make_disk(ramp_up_gap_s=2.0)
        disk.submit(0.0, 100)
        disk.submit(12.0, 200)  # slow service at NAP speed
        assert disk._mode != 0
        disk.submit(12.5, 300)  # burst: ramps up
        assert disk._mode == 0
        assert disk.ramp_ups == 1

    def test_sparse_traffic_stays_slow(self):
        disk = make_disk(ramp_up_gap_s=1.0)
        disk.submit(0.0, 100)
        disk.submit(12.0, 200)
        disk.submit(24.0, 300)  # sparse: no ramp
        assert disk.ramp_ups == 0
        assert disk.slow_services == 2

    def test_energy_still_accounted(self):
        disk = make_disk()
        disk.submit(0.0, 100)
        disk.submit(12.0, 200)
        disk.finalize(100.0)
        assert disk.account.total_energy_j > 0
        assert disk.account.total_time_s == pytest.approx(100.0, rel=0.05)

    def test_response_tail_beats_full_speed_only(self):
        """The design's selling point: no multi-second wake outliers
        for NAP-depth gaps."""
        all_speed = make_disk()
        reference = make_reference()
        worst_all, worst_ref = 0.0, 0.0
        for t in (0.0, 12.0, 24.0, 36.0):
            worst_all = max(
                worst_all, all_speed.submit(t, 100).response_time_s
            )
            worst_ref = max(
                worst_ref, reference.submit(t, 100).response_time_s
            )
        assert worst_all < worst_ref


class TestProcessIdleFrom:
    def test_start_mode_zero_matches_plain(self):
        model = build_power_model(ULTRASTAR_36Z15)
        dpm = PracticalDPM(model)
        for t in (1.0, 8.0, 30.0, 200.0):
            a = dpm.process_idle(t).total_energy_j
            b = dpm.process_idle_from(0, t).total_energy_j
            assert a == pytest.approx(b)

    def test_resides_in_start_mode_until_deeper_threshold(self):
        model = build_power_model(ULTRASTAR_36Z15)
        dpm = PracticalDPM(model)
        out = dpm.process_idle_from(2, 1.0, wake=False)
        assert out.mode_residency_s == {2: 1.0}
        assert out.spindowns == 0

    def test_descends_past_deeper_thresholds(self):
        model = build_power_model(ULTRASTAR_36Z15)
        dpm = PracticalDPM(model)
        out = dpm.process_idle_from(2, 100.0, wake=False)
        assert out.spindowns == 3  # NAP3, NAP4, standby
        assert (len(model) - 1) in out.mode_residency_s

    def test_mode_after_idle_from(self):
        model = build_power_model(ULTRASTAR_36Z15)
        dpm = PracticalDPM(model)
        assert dpm.mode_after_idle_from(2, 1.0) == 2
        assert dpm.mode_after_idle_from(2, 1000.0) == len(model) - 1
        assert dpm.mode_after_idle_from(0, 6.0) == 1

    def test_cheaper_than_descending_from_idle(self):
        """Starting deeper can only save energy for the same gap."""
        model = build_power_model(ULTRASTAR_36Z15)
        dpm = PracticalDPM(model)
        for t in (5.0, 20.0, 60.0):
            from_idle = dpm.process_idle_from(0, t, wake=False).total_energy_j
            from_nap2 = dpm.process_idle_from(2, t, wake=False).total_energy_j
            assert from_nap2 <= from_idle + 1e-9
