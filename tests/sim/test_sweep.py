"""Tests for the grid-sweep utilities."""

import csv

import pytest

from repro.errors import ConfigurationError
from repro.sim.sweep import grid_sweep
from repro.traces.synthetic import (
    SyntheticTraceConfig,
    generate_synthetic_trace_columnar,
)


@pytest.fixture(scope="module")
def trace():
    return generate_synthetic_trace_columnar(
        SyntheticTraceConfig(num_requests=400, num_disks=3, seed=29)
    ).to_requests()


class TestGridSweep:
    def test_cartesian_product(self, trace):
        sweep = grid_sweep(
            trace,
            axes={"policy": ["lru", "fifo"], "dpm": ["practical", "oracle"]},
            num_disks=3,
            cache_blocks=64,
        )
        assert len(sweep.points) == 4
        combos = {(p.params["policy"], p.params["dpm"]) for p in sweep.points}
        assert combos == {
            ("lru", "practical"),
            ("lru", "oracle"),
            ("fifo", "practical"),
            ("fifo", "oracle"),
        }

    def test_records_carry_metrics(self, trace):
        sweep = grid_sweep(
            trace, axes={"policy": ["lru"]}, num_disks=3, cache_blocks=64
        )
        record = sweep.records()[0]
        assert record["policy"] == "lru"
        assert record["energy_j"] > 0
        assert 0 <= record["hit_ratio"] <= 1

    def test_best_by_metric(self, trace):
        sweep = grid_sweep(
            trace,
            axes={"dpm": ["always_on", "practical", "oracle"]},
            num_disks=3,
            cache_blocks=64,
        )
        assert sweep.best("energy_j").params["dpm"] == "oracle"

    def test_best_maximize(self, trace):
        sweep = grid_sweep(
            trace,
            axes={"cache_blocks": [16, 256]},
            num_disks=3,
            cache_blocks=64,
        )
        assert sweep.best("hit_ratio", maximize=True).params[
            "cache_blocks"
        ] == 256
        assert sweep.best("hit_ratio").params["cache_blocks"] == 16

    def test_workers_knob_matches_serial(self, trace):
        axes = {"policy": ["lru", "fifo"], "dpm": ["practical", "oracle"]}
        serial = grid_sweep(trace, axes=axes, num_disks=3, cache_blocks=64)
        parallel = grid_sweep(
            trace, axes=axes, num_disks=3, cache_blocks=64, workers=2
        )
        assert parallel.records() == serial.records()

    def test_csv_export(self, trace, tmp_path):
        sweep = grid_sweep(
            trace, axes={"policy": ["lru", "clock"]},
            num_disks=3, cache_blocks=64,
        )
        path = tmp_path / "sweep.csv"
        sweep.to_csv(path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert {r["policy"] for r in rows} == {"lru", "clock"}

    def test_trace_factory_axes(self):
        def factory(write_ratio):
            return generate_synthetic_trace_columnar(
                SyntheticTraceConfig(
                    num_requests=300, num_disks=3, write_ratio=write_ratio,
                    seed=5,
                )
            ).to_requests()

        sweep = grid_sweep(
            factory,
            axes={"write_ratio": [0.0, 1.0], "policy": ["lru"]},
            trace_params=["write_ratio"],
            num_disks=3,
            cache_blocks=64,
        )
        by_ratio = {
            p.params["write_ratio"]: p.result for p in sweep.points
        }
        assert by_ratio[1.0].disk_writes > by_ratio[0.0].disk_writes

    def test_validation(self, trace):
        with pytest.raises(ConfigurationError):
            grid_sweep(trace, axes={}, num_disks=3, cache_blocks=64)
        with pytest.raises(ConfigurationError):
            grid_sweep(
                trace,
                axes={"policy": ["lru"]},
                trace_params=["missing"],
                num_disks=3,
                cache_blocks=64,
            )
        with pytest.raises(ConfigurationError):
            grid_sweep(
                trace,  # not callable, but trace_params given
                axes={"policy": ["lru"]},
                trace_params=["policy"],
                num_disks=3,
                cache_blocks=64,
            )

    def test_empty_sweep_export_rejected(self, tmp_path):
        from repro.sim.sweep import SweepResult

        with pytest.raises(ConfigurationError):
            SweepResult().to_csv(tmp_path / "x.csv")
        with pytest.raises(ConfigurationError):
            SweepResult().best()
