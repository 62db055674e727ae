"""End-to-end `repro faults` CLI tests."""

import pytest

from repro.cli import main
from repro.traces.columnar import ColumnarTrace
from repro.traces.io import save_trace
from repro.traces.record import IORequest


@pytest.fixture()
def trace_csv(tmp_path):
    requests = []
    t = 0.0
    for i in range(30):
        requests.append(
            IORequest(
                time=t, disk=i % 2, block=10 + (i % 6), is_write=i % 3 != 2
            )
        )
        t += 200.0
    path = tmp_path / "trace.csv"
    save_trace(ColumnarTrace.from_requests(requests), path)
    return str(path)


class TestFaultsCommand:
    def test_single_scenario_passes(self, trace_csv, capsys):
        code = main(
            ["faults", trace_csv, "--crash-at", "17", "--cache-blocks", "16"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "WTDU" in out
        assert "ok" in out
        assert "17/30" in out

    def test_write_back_scenario_reports_loss_but_exits_zero(
        self, trace_csv, capsys
    ):
        code = main(
            [
                "faults", trace_csv, "--crash-at", "17",
                "-w", "write-back", "--cache-blocks", "64",
            ]
        )
        out = capsys.readouterr().out
        # loss under a volatile policy is the expected paper result,
        # not a harness failure
        assert code == 0
        assert "lost" in out
        assert "lost blocks" in out

    def test_matrix_sweeps_all_policies(self, trace_csv, capsys):
        code = main(
            ["faults", trace_csv, "--matrix", "--cache-blocks", "16"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "crash matrix" in out
        for name in ("WTDU", "write-through", "write-back", "WBEU"):
            assert name in out
        assert "FAIL" not in out

    def test_missing_crash_point_is_usage_error(self, trace_csv, capsys):
        code = main(["faults", trace_csv])
        err = capsys.readouterr().err
        assert code == 2
        assert "crash point is required" in err

    def test_crash_time_with_injected_faults(self, trace_csv, capsys):
        code = main(
            [
                "faults", trace_csv, "--crash-time", "2500",
                "--seed", "7", "--spinup-fail-rate", "0.3",
                "--cache-blocks", "16",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "ok" in out
