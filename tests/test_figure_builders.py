"""Tests for the per-figure data builders on reduced workloads."""

import pytest

from repro.analysis.figures import (
    interval_cdf_series,
    replacement_comparison,
    spinup_cost_sweep,
    time_breakdown_comparison,
    write_policy_sweep,
)
from repro.core.histogram import IntervalHistogram
from repro.traces.synthetic import (
    SyntheticTraceConfig,
    generate_synthetic_trace_columnar,
)


@pytest.fixture(scope="module")
def trace():
    return generate_synthetic_trace_columnar(
        SyntheticTraceConfig(num_requests=1500, num_disks=4, seed=43)
    ).to_requests()


class TestReplacementComparison:
    def test_grid_shape(self, trace):
        results = replacement_comparison(
            trace,
            num_disks=4,
            cache_blocks=128,
            dpms=("practical",),
            policies=("lru", "belady"),
        )
        assert set(results) == {"practical"}
        assert set(results["practical"]) == {"lru", "belady"}
        assert results["practical"]["lru"].total_energy_j > 0


class TestTimeBreakdownComparison:
    def test_rows_per_disk_and_policy(self, trace):
        results = replacement_comparison(
            trace, num_disks=4, cache_blocks=128,
            dpms=("practical",), policies=("lru", "pa-lru"),
        )["practical"]
        rows = time_breakdown_comparison(
            results["lru"], results["pa-lru"], [0, 3]
        )
        assert len(rows) == 4
        assert {r["policy"] for r in rows} == {"LRU", "PA-LRU"}
        for row in rows:
            if row["breakdown"]:
                assert sum(row["breakdown"].values()) == pytest.approx(1.0)


class TestSpinupCostSweep:
    def test_points_cover_costs(self, trace):
        points = spinup_cost_sweep(
            trace, num_disks=4, cache_blocks=128,
            spinup_costs_j=[67.5, 135.0],
        )
        assert [cost for cost, _ in points] == [67.5, 135.0]
        for _, saving in points:
            assert -1.0 < saving < 1.0


class TestWritePolicySweep:
    def test_curves_keyed_by_policy(self):
        def make_trace(write_ratio=0.5):
            return generate_synthetic_trace_columnar(
                SyntheticTraceConfig(
                    num_requests=800, num_disks=4,
                    write_ratio=write_ratio, seed=44,
                )
            ).to_requests()

        curves = write_policy_sweep(
            make_trace,
            [0.0, 1.0],
            "write_ratio",
            num_disks=4,
            cache_blocks=64,
            policies=("write-back",),
        )
        assert set(curves) == {"write-back"}
        assert [x for x, _ in curves["write-back"]] == [0.0, 1.0]
        # no writes -> no savings over write-through
        assert curves["write-back"][0][1] == pytest.approx(0.0, abs=0.02)


class TestIntervalCdfSeries:
    def test_pairs(self):
        hist = IntervalHistogram([1.0, 2.0])
        hist.add(0.5)
        hist.add(1.5)
        series = interval_cdf_series(hist, [1.0, 2.0])
        assert series == [(1.0, 0.5), (2.0, 1.0)]
