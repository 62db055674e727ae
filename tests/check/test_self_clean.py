"""The linter's own verdict on src/repro: zero findings.

This is the self-application gate: every rule the ``static-analysis``
CI job enforces must hold on the shipped tree, so a regression shows up
here (and in CI) rather than only on someone's workstation.
"""

from repro.check.runner import run_check
from repro.cli import main as cli_main

from .conftest import REPO_ROOT


def test_src_repro_is_clean():
    report = run_check([REPO_ROOT / "src" / "repro"], base=REPO_ROOT)
    assert report.errors == [], "\n" + "\n".join(
        f.render() for f in report.errors
    )
    assert report.warnings == [], "\n" + "\n".join(
        f.render() for f in report.warnings
    )
    assert report.files_checked > 50


def test_cli_strict_gate_passes(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    rc = cli_main(["check", "src/repro", "--strict"])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "0 errors, 0 warnings" in out
