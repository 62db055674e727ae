"""Checker framework: the base class, the registry, shared AST helpers."""

from __future__ import annotations

import ast
from typing import Iterator, Type

from repro.check.finding import Finding, Severity
from repro.check.project import ModuleInfo, Project

#: Rule id -> checker class; populated by the :func:`register` decorator
#: when the checker modules are imported (``repro.check.__init__``).
CHECKERS: dict[str, Type["Checker"]] = {}


def register(cls: Type["Checker"]) -> Type["Checker"]:
    """Class decorator adding a checker to :data:`CHECKERS`."""
    if not cls.rule:
        raise ValueError(f"{cls.__name__} has no rule id")
    CHECKERS[cls.rule] = cls
    return cls


class Checker:
    """One static-analysis rule.

    Subclasses set :attr:`rule` (the id used in findings, pragmas and
    ``--select``) and implement :meth:`check`, yielding
    :class:`Finding` objects. The runner applies pragma suppression
    afterwards — checkers just report everything they see.
    """

    rule: str = ""
    description: str = ""
    #: Fix-it guidance and an example finding, surfaced by
    #: ``repro check --explain RULE``.
    guidance: str = ""
    example: str = ""

    def check(
        self, module: ModuleInfo, project: Project
    ) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        module: ModuleInfo,
        node: ast.AST,
        message: str,
        severity: Severity = Severity.ERROR,
    ) -> Finding:
        return Finding(
            rule=self.rule,
            severity=severity,
            path=module.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


# -- shared AST helpers ----------------------------------------------------


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` attribute chains as a dotted string (None otherwise)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name -> canonical dotted origin, from the module's imports.

    ``import numpy as np`` maps ``np -> numpy``; ``from time import
    time`` maps ``time -> time.time``. Lets checkers recognise a call
    like ``np.random.rand()`` as ``numpy.random.rand`` regardless of
    the alias the module chose.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return aliases


def canonical_call_name(
    func: ast.expr, aliases: dict[str, str]
) -> str | None:
    """The canonical dotted name of a call target, alias-resolved."""
    dotted = dotted_name(func)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    origin = aliases.get(head, head)
    return f"{origin}.{rest}" if rest else origin


def call_name(node: ast.expr) -> str | None:
    """Plain (un-aliased) last-segment name of a call target."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None
