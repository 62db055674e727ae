"""Orchestration: run checkers over a tree, apply pragmas.

:func:`run_check` is the library entry point; :func:`main` backs the
``repro check`` CLI subcommand (see :mod:`repro.cli`).

Exit codes: ``0`` clean, ``1`` findings (errors by default; warnings
too under ``--strict``), ``2`` usage or I/O errors (raised as
:class:`~repro.errors.ReproError` and rendered by the CLI). The only
suppression is the per-line ``# repro: ignore[rule]`` pragma.
"""

from __future__ import annotations

import inspect
import json
import sys
import textwrap
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.check.base import CHECKERS
from repro.check.finding import Finding, Severity
from repro.check.project import Project
from repro.errors import ReproError


@dataclass(slots=True)
class Report:
    """Outcome of one ``repro check`` run."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.WARNING]

    def failed(self, strict: bool = False) -> bool:
        if strict:
            return bool(self.findings)
        return bool(self.errors)

    def summary(self) -> str:
        parts = [
            f"{self.files_checked} files",
            f"{len(self.errors)} errors",
            f"{len(self.warnings)} warnings",
        ]
        if self.suppressed:
            parts.append(f"{len(self.suppressed)} pragma-ignored")
        return ", ".join(parts)


def run_check(
    paths: Sequence[str | Path],
    *,
    base: str | Path | None = None,
    select: Iterable[str] | None = None,
) -> Report:
    """Run the (selected) checkers over ``paths``.

    Args:
        paths: Files and/or directories to scan (one parsed project —
            cross-module rules see everything together).
        base: Root findings' paths are made relative to (default: cwd).
        select: Rule ids to run (default: all registered).
    """
    rules = list(select) if select is not None else sorted(CHECKERS)
    unknown = [r for r in rules if r not in CHECKERS]
    if unknown:
        raise ReproError(
            f"unknown rule(s) {', '.join(unknown)}; "
            f"available: {', '.join(sorted(CHECKERS))}"
        )
    project = Project(list(paths), base=base)
    checkers = [CHECKERS[rule]() for rule in rules]

    raw: list[Finding] = []
    suppressed: list[Finding] = []
    for module in project.modules:
        for checker in checkers:
            for finding in checker.check(module, project):
                if module.is_ignored(finding.line, finding.rule):
                    suppressed.append(finding)
                else:
                    raw.append(finding)

    return Report(
        findings=sorted(raw, key=lambda f: f.sort_key),
        suppressed=suppressed,
        files_checked=len(project.modules),
    )


# -- CLI ---------------------------------------------------------------------


def add_arguments(parser) -> None:
    """Populate the ``repro check`` subparser (called from repro.cli)."""
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files/directories to scan (default: src/repro)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default text)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="fail on warnings, not just errors",
    )
    parser.add_argument(
        "--select", action="append", metavar="RULE",
        help="run only this rule (repeatable); default: all "
        f"({', '.join(sorted(CHECKERS))})",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--explain", metavar="RULE", default=None,
        help="print what RULE checks, how to act on a finding, and an "
        "example, then exit",
    )


def explain(rule: str) -> str:
    """Human-oriented description of one rule (backs ``--explain``)."""
    cls = CHECKERS.get(rule)
    if cls is None:
        raise ReproError(
            f"unknown rule {rule!r}; "
            f"available: {', '.join(sorted(CHECKERS))}"
        )
    lines = [f"{rule} — {cls.description}"]
    doc = inspect.getdoc(cls) or inspect.getdoc(
        sys.modules[cls.__module__]
    )
    if doc:
        lines += ["", doc.strip()]
    guidance = getattr(cls, "guidance", "")
    if guidance:
        lines += ["", "How to fix:", *textwrap.wrap(guidance, width=72)]
    example = getattr(cls, "example", "")
    if example:
        lines += ["", "Example finding:", f"  {example}"]
    return "\n".join(lines)


def main(args) -> int:
    if args.list_rules:
        for rule in sorted(CHECKERS):
            print(f"{rule:12s} {CHECKERS[rule].description}")
        return 0
    if args.explain is not None:
        print(explain(args.explain))
        return 0

    report = run_check(args.paths, select=args.select)

    if args.format == "json":
        payload = {
            "findings": [f.to_dict() for f in report.findings],
            "pragma_ignored": len(report.suppressed),
            "files_checked": report.files_checked,
            "failed": report.failed(strict=args.strict),
        }
        print(json.dumps(payload, indent=2))
    else:
        for finding in report.findings:
            print(finding.render())
        print(f"repro check: {report.summary()}")
    return 1 if report.failed(strict=args.strict) else 0
