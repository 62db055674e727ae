"""Integration tests: the paper's qualitative results at small scale.

These run reduced versions of the Figure 6 / Figure 9 experiments (a
few minutes of simulated time each) and assert the *shape* of the
results — the orderings and directions the full benchmarks reproduce at
paper scale.
"""

import pytest

from repro.sim.runner import run_simulation
from repro.traces.cello import CelloTraceConfig, generate_cello_trace_columnar
from repro.traces.oltp import OLTPTraceConfig, generate_oltp_trace_columnar
from repro.traces.synthetic import (
    SyntheticTraceConfig,
    generate_synthetic_trace_columnar,
)

OLTP_CACHE = 2048


@pytest.fixture(scope="module")
def oltp():
    # 40 minutes keeps several epochs while staying fast
    config = OLTPTraceConfig(duration_s=2400.0)
    return generate_oltp_trace_columnar(config).to_requests()


@pytest.fixture(scope="module")
def oltp_results(oltp):
    # shorter PA epoch so classification converges within the reduced
    # trace (the benchmarks use the paper's 15-minute epoch at full
    # 2-hour scale)
    return {
        name: run_simulation(
            oltp,
            name,
            num_disks=21,
            cache_blocks=OLTP_CACHE,
            dpm="practical",
            pa_epoch_s=300.0,
        )
        for name in ("infinite", "belady", "opg", "lru", "pa-lru")
    }


class TestFigure6Shapes:
    def test_lru_is_the_most_expensive(self, oltp_results):
        lru = oltp_results["lru"].total_energy_j
        for name, result in oltp_results.items():
            assert result.total_energy_j <= lru * 1.001, name

    def test_infinite_cache_is_the_cheapest(self, oltp_results):
        infinite = oltp_results["infinite"].total_energy_j
        for name, result in oltp_results.items():
            assert result.total_energy_j >= infinite * 0.999, name

    def test_pa_lru_saves_meaningful_energy(self, oltp_results):
        savings = oltp_results["pa-lru"].savings_over(oltp_results["lru"])
        assert savings > 0.04  # paper: 16% at full 2h scale

    def test_opg_beats_belady_on_energy(self, oltp_results):
        assert (
            oltp_results["opg"].total_energy_j
            < oltp_results["belady"].total_energy_j
        )

    def test_opg_has_more_misses_but_less_energy(self, oltp_results):
        """The Section 3 punchline in one assertion."""
        opg, belady = oltp_results["opg"], oltp_results["belady"]
        assert opg.cache_misses >= belady.cache_misses
        assert opg.total_energy_j < belady.total_energy_j

    def test_pa_lru_improves_response_time(self, oltp_results):
        assert (
            oltp_results["pa-lru"].response.mean_s
            < oltp_results["lru"].response.mean_s
        )

    def test_pa_lru_reduces_spinups(self, oltp_results):
        assert oltp_results["pa-lru"].spinups < oltp_results["lru"].spinups


class TestFigure7Shapes:
    def test_cool_disk_interarrival_stretches_under_pa(self, oltp_results):
        """Figure 7b: priority disks see much sparser traffic under PA."""
        config = OLTPTraceConfig()
        cool = range(config.num_hot_disks, config.num_disks)
        lru = oltp_results["lru"]
        pa = oltp_results["pa-lru"]
        lru_gap = sum(lru.disks[d].mean_interarrival_s for d in cool)
        pa_gap = sum(pa.disks[d].mean_interarrival_s for d in cool)
        assert pa_gap > 1.2 * lru_gap

    def test_cool_disks_sleep_more_under_pa(self, oltp_results):
        """Figure 7a: more standby residency for the priority band."""
        config = OLTPTraceConfig()
        cool = range(config.num_hot_disks, config.num_disks)
        deepest = "mode:5"
        lru_standby = sum(
            oltp_results["lru"].disks[d].time_breakdown().get(deepest, 0)
            for d in cool
        )
        pa_standby = sum(
            oltp_results["pa-lru"].disks[d].time_breakdown().get(deepest, 0)
            for d in cool
        )
        assert pa_standby > lru_standby


class TestCelloShapes:
    @pytest.fixture(scope="class")
    def cello_results(self):
        trace = generate_cello_trace_columnar(
            CelloTraceConfig(duration_s=300.0)
        ).to_requests()
        return {
            name: run_simulation(
                trace, name, num_disks=19, cache_blocks=4096, dpm="practical"
            )
            for name in ("infinite", "lru", "pa-lru")
        }

    def test_pa_lru_close_to_lru(self, cello_results):
        """Cold-dominated + fast arrivals: nothing to gain (Section 5.2)."""
        ratio = cello_results["pa-lru"].energy_relative_to(
            cello_results["lru"]
        )
        assert 0.95 <= ratio <= 1.02

    def test_even_infinite_cache_gains_little(self, cello_results):
        ratio = cello_results["infinite"].energy_relative_to(
            cello_results["lru"]
        )
        assert ratio >= 0.85

    def test_cold_miss_fraction_matches_table2(self, cello_results):
        assert cello_results["lru"].cold_miss_fraction == pytest.approx(
            0.64, abs=0.08
        )


class TestFigure9Shapes:
    @pytest.fixture(scope="class")
    def policies(self):
        def run(write_ratio, write_policy):
            trace = generate_synthetic_trace_columnar(
                SyntheticTraceConfig(
                    num_requests=8000, write_ratio=write_ratio, seed=21
                )
            ).to_requests()
            # a small cache so capacity evictions actually happen —
            # write-back is degenerate (never writes) otherwise
            return run_simulation(
                trace,
                "lru",
                num_disks=20,
                cache_blocks=512,
                write_policy=write_policy,
            )

        return run

    def test_wb_beats_wt_and_grows_with_write_ratio(self, policies):
        low = policies(0.2, "write-back").savings_over(
            policies(0.2, "write-through")
        )
        high = policies(0.9, "write-back").savings_over(
            policies(0.9, "write-through")
        )
        assert 0 <= low < high

    def test_wbeu_beats_wb(self, policies):
        wt = policies(0.9, "write-through")
        assert policies(0.9, "wbeu").savings_over(wt) > policies(
            0.9, "write-back"
        ).savings_over(wt)

    def test_wtdu_beats_wt_substantially(self, policies):
        wt = policies(0.9, "write-through")
        assert policies(0.9, "wtdu").savings_over(wt) > 0.2

    def test_pure_reads_identical_across_policies(self, policies):
        wt = policies(0.0, "write-through")
        for name in ("write-back", "wbeu", "wtdu"):
            assert policies(0.0, name).total_energy_j == pytest.approx(
                wt.total_energy_j, rel=0.01
            )
