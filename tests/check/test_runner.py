"""Runner mechanics: pragmas, CLI formats and codes."""

import json

import pytest

from repro.check.runner import run_check
from repro.cli import main as cli_main
from repro.errors import ReproError

from .conftest import FIXTURES


class TestPragmas:
    def test_ignore_suppresses_only_its_line(self, check_fixture):
        report = check_fixture("pragma_mixed.py", select=["determinism"])
        # one rule-scoped ignore, one bare ignore, one live violation
        assert len(report.suppressed) == 2
        assert len(report.findings) == 1
        live = report.findings[0]
        suppressed_lines = {f.line for f in report.suppressed}
        assert live.line not in suppressed_lines

    def test_pragma_in_decorated_def_body(self, check_fixture):
        report = check_fixture("pragma_edges.py", select=["determinism"])
        # suppression inside a decorated body works; a pragma on the
        # decorator line does NOT leak onto body lines
        assert len(report.suppressed) == 2
        assert len(report.findings) == 2
        suppressed = {f.line for f in report.suppressed}
        live = {f.line for f in report.findings}
        assert suppressed.isdisjoint(live)

    def test_pragma_on_multiline_expression_is_line_scoped(
        self, check_fixture
    ):
        report = check_fixture("pragma_edges.py", select=["determinism"])
        # the pragma on the violating call's own physical line
        # suppresses; one on the closing paren's line does not
        src = (FIXTURES / "pragma_edges.py").read_text().splitlines()
        for f in report.suppressed:
            assert "repro: ignore" in src[f.line - 1]
        for f in report.findings:
            assert "repro: ignore" not in src[f.line - 1]


class TestRunner:
    def test_unknown_rule_rejected(self):
        with pytest.raises(ReproError, match="unknown rule"):
            run_check([FIXTURES / "units_bad.py"], select=["no-such-rule"])

    def test_strict_promotes_warnings(self, check_fixture):
        report = check_fixture("determinism_bad.py", select=["determinism"])
        warn_only = [f for f in report.findings if f in report.warnings]
        assert warn_only
        assert report.failed(strict=True)

    def test_summary_mentions_counts(self, check_fixture):
        report = check_fixture("determinism_bad.py", select=["determinism"])
        summary = report.summary()
        assert "1 files" in summary
        assert "5 errors" in summary
        assert "2 warnings" in summary


class TestCli:
    def test_text_format_and_exit_code(self, capsys):
        rc = cli_main(
            [
                "check",
                str(FIXTURES / "units_bad.py"),
                "--select", "units",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "error[units]" in out
        assert "repro check:" in out

    def test_json_format(self, capsys):
        rc = cli_main(
            [
                "check",
                str(FIXTURES / "units_bad.py"),
                "--format", "json",
                "--select", "units",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert payload["failed"] is True
        assert payload["files_checked"] == 1
        assert {f["rule"] for f in payload["findings"]} == {"units"}
        first = payload["findings"][0]
        assert {"rule", "severity", "path", "line", "col", "message"} <= set(
            first
        )

    def test_clean_file_exits_zero(self, capsys):
        rc = cli_main(
            [
                "check",
                str(FIXTURES / "units_clean.py"),
                "--strict",
                "--select", "units",
            ]
        )
        assert rc == 0
        assert "0 errors, 0 warnings" in capsys.readouterr().out

    def test_pragmas_surface_in_json_and_exit_codes(self, capsys):
        # live findings fail even with pragmas present...
        rc = cli_main(
            [
                "check", str(FIXTURES / "pragma_edges.py"),
                "--format", "json",
                "--select", "determinism",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert payload["pragma_ignored"] == 2
        assert len(payload["findings"]) == 2
    def test_fully_suppressed_file_is_green_even_strict(
        self, tmp_path, capsys
    ):
        src = tmp_path / "suppressed.py"
        src.write_text(
            "import time\n"
            "now = time.time()  # repro: ignore[determinism]\n"
        )
        rc = cli_main(
            [
                "check", str(src),
                "--format", "json", "--strict",
                "--select", "determinism",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["failed"] is False
        assert payload["pragma_ignored"] == 1
        assert payload["findings"] == []

    def test_list_rules(self, capsys):
        rc = cli_main(["check", "--list-rules"])
        out = capsys.readouterr().out
        assert rc == 0
        for rule in (
            "determinism", "units", "unitsflow", "asyncsafe",
            "resource", "fastpath", "events", "slots",
        ):
            assert rule in out

    def test_explain_prints_rule_documentation(self, capsys):
        rc = cli_main(["check", "--explain", "unitsflow"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("unitsflow — ")
        assert "How to fix:" in out
        assert "Example finding:" in out

    def test_explain_covers_every_registered_rule(self, capsys):
        from repro.check.base import CHECKERS

        for rule in CHECKERS:
            rc = cli_main(["check", "--explain", rule])
            out = capsys.readouterr().out
            assert rc == 0
            assert "How to fix:" in out, rule
            assert "Example finding:" in out, rule

    def test_explain_unknown_rule_exits_two(self, capsys):
        rc = cli_main(["check", "--explain", "no-such-rule"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "unknown rule" in err
