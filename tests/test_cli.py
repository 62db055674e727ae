"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestInfo:
    def test_prints_model(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Ultrastar" in out
        assert "STANDBY" in out
        assert "breakeven" in out


class TestGenerate:
    def test_synthetic(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        code = main(
            ["generate", "synthetic", "-o", str(path), "--requests", "500"]
        )
        assert code == 0
        assert path.exists()
        assert "500 requests" in capsys.readouterr().out

    def test_oltp_with_overrides(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        main(
            [
                "generate", "oltp", "-o", str(path),
                "--duration", "60", "--seed", "3", "--write-ratio", "0.5",
            ]
        )
        out = capsys.readouterr().out
        assert "disks=21" in out

    def test_cello(self, tmp_path):
        path = tmp_path / "t.csv"
        assert main(
            ["generate", "cello", "-o", str(path), "--duration", "5"]
        ) == 0

    def test_zoo_families(self, tmp_path, capsys):
        for name, duration in (("dbms", "10"), ("cdn", "3"), ("tenant", "60")):
            path = tmp_path / f"{name}.csv"
            assert main(
                ["generate", name, "-o", str(path), "--duration", duration]
            ) == 0
            assert path.exists()
            assert "requests" in capsys.readouterr().out

    def test_synthetic_rejects_duration(self, tmp_path, capsys):
        code = main(
            ["generate", "synthetic", "-o", str(tmp_path / "t.csv"),
             "--duration", "5"]
        )
        assert code == 2
        assert "--requests" in capsys.readouterr().err


class TestTraceImport:
    FIXTURES = "tests/traces/fixtures"

    def test_blktrace_import(self, tmp_path, capsys):
        out = tmp_path / "imported.csv"
        code = main(
            ["trace", "import", f"{self.FIXTURES}/journal.blktrace",
             "-o", str(out)]
        )
        assert code == 0
        assert "imported 6 requests (blktrace)" in capsys.readouterr().out
        assert main(["simulate", str(out), "-p", "lru"]) == 0

    def test_iostat_import_with_format(self, tmp_path, capsys):
        out = tmp_path / "imported.csv"
        code = main(
            ["trace", "import", f"{self.FIXTURES}/fileserver.iostat",
             "-o", str(out), "--format", "iostat", "--interval", "2.0"]
        )
        assert code == 0
        assert "(iostat)" in capsys.readouterr().out

    def test_malformed_input_reports_line(self, tmp_path, capsys):
        code = main(
            ["trace", "import", f"{self.FIXTURES}/bad_op.blktrace",
             "-o", str(tmp_path / "x.csv")]
        )
        assert code == 2
        assert "bad_op.blktrace:2" in capsys.readouterr().err


@pytest.fixture()
def trace_file(tmp_path):
    path = tmp_path / "trace.csv"
    main(["generate", "synthetic", "-o", str(path), "--requests", "800"])
    return str(path)


class TestSimulate:
    def test_lru(self, trace_file, capsys):
        assert main(["simulate", trace_file, "-p", "lru"]) == 0
        out = capsys.readouterr().out
        assert "energy=" in out
        assert "hit ratio=" in out

    def test_policy_and_options(self, trace_file, capsys):
        code = main(
            [
                "simulate", trace_file, "-p", "pa-lru",
                "--cache-blocks", "256", "--dpm", "oracle",
                "-w", "write-through",
            ]
        )
        assert code == 0
        assert "pa-lru" in capsys.readouterr().out

    def test_prefetch_flag(self, trace_file, capsys):
        assert main(
            ["simulate", trace_file, "-p", "lru", "--prefetch-depth", "4"]
        ) == 0

    def test_workload_flag_generates_in_process(self, capsys):
        code = main(
            ["simulate", "--workload", "tenant", "--duration", "60",
             "-p", "pa-lru"]
        )
        assert code == 0
        assert "energy=" in capsys.readouterr().out

    #: Recorded while ``--workload`` oltp still generated a list trace,
    #: which ran row by row through ``handle_request``.
    OLTP_SUMMARIES = {
        "lru": (
            "lru [practical DPM]: energy=119.2 kJ (disks 119.2, log 0.0); "
            "hit ratio=40.2% (cold 58.8%); mean response=352.85 ms "
            "(p95 2183.88 ms); spinups=451; disk I/O=2792R/350W"
        ),
        "pa-lru": (
            "pa-lru [practical DPM]: energy=119.2 kJ (disks 119.2, log 0.0); "
            "hit ratio=40.2% (cold 58.8%); mean response=352.85 ms "
            "(p95 2183.88 ms); spinups=451; disk I/O=2792R/350W"
        ),
        "opg": (
            "opg [practical DPM]: energy=115.5 kJ (disks 115.5, log 0.0); "
            "hit ratio=41.2% (cold 58.8%); mean response=373.11 ms "
            "(p95 2184.06 ms); spinups=448; disk I/O=2740R/307W"
        ),
    }

    @pytest.mark.parametrize("policy", sorted(OLTP_SUMMARIES))
    def test_oltp_workload_summary_unchanged(self, policy, capsys):
        code = main(
            ["simulate", "--workload", "oltp", "--seed", "1",
             "--duration", "600", "-p", policy]
        )
        assert code == 0
        assert capsys.readouterr().out == self.OLTP_SUMMARIES[policy] + "\n"

    def test_trace_and_workload_are_exclusive(self, trace_file, capsys):
        code = main(
            ["simulate", trace_file, "--workload", "dbms", "-p", "lru"]
        )
        assert code == 2
        assert "either a trace file or --workload" in capsys.readouterr().err

    def test_neither_trace_nor_workload(self, capsys):
        assert main(["simulate", "-p", "lru"]) == 2


class TestCompare:
    def test_default_pair(self, trace_file, capsys):
        assert main(["compare", trace_file]) == 0
        out = capsys.readouterr().out
        assert "lru" in out and "pa-lru" in out
        assert "vs lru" in out

    def test_explicit_policies(self, trace_file, capsys):
        code = main(
            ["compare", trace_file, "-p", "lru", "-p", "arc", "-p", "clock"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "arc" in out and "clock" in out

    def test_unknown_policy_rejected(self, trace_file):
        with pytest.raises(SystemExit):
            main(["compare", trace_file, "-p", "bogus"])

    def test_workload_flag(self, capsys):
        code = main(
            ["compare", "--workload", "cdn", "--duration", "10",
             "-p", "lru", "-p", "pa-lru"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cdn" in out and "pa-lru" in out


class TestReproduce:
    def test_figure3_section_always_runs(self, capsys, monkeypatch):
        # stub the heavy figure-6 part by shrinking the trace further:
        # --quick already cuts it to 40 simulated minutes, which runs in
        # a few seconds — acceptable for one CLI integration test
        assert main(["reproduce", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "more misses, less energy" in out
        assert "Figure 6(a)" in out
        assert "pa-lru" in out


class TestServe:
    def test_load_gen_needs_a_port(self, capsys):
        code = main(["serve", "--load-gen"])
        assert code == 2
        assert "--tcp-port" in capsys.readouterr().err

    def test_offline_policies_cannot_serve(self, capsys):
        code = main(["serve", "-p", "opg"])
        assert code == 2
        assert "cannot serve live" in capsys.readouterr().err

    def test_serve_flags_parse(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args(
            [
                "serve", "-p", "pa-lru", "--time-dilation", "25",
                "--queue-capacity", "64", "--checkpoint-dir", "cps",
                "--checkpoint-every", "1000", "--tcp-port", "7777",
            ]
        )
        assert args.command == "serve"
        assert args.policy == "pa-lru"
        assert args.time_dilation == 25.0
        assert args.queue_capacity == 64
        assert args.checkpoint_every == 1000
        assert args.tcp_port == 7777
