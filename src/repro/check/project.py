"""Source loading and the cross-module AST index.

A :class:`Project` parses every file under the scanned roots once and
exposes what the domain checkers need to reason across module
boundaries: the per-module ASTs, the ``# repro:`` pragma comments, and
a name-based class index with transitive subclass resolution (static
analysis has no import machinery, so classes are matched by name — in
this codebase class names are unique, and the fixtures keep theirs
unique too).
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.errors import ReproError


class CheckError(ReproError):
    """A file could not be read or parsed for checking."""


#: ``# repro: ignore[rule_a, rule_b]`` silences those rules on the
#: line; ``# repro: ignore`` silences every rule.
_PRAGMA = re.compile(r"#\s*repro:\s*ignore(?:\[(?P<rules>[^\]]*)\])?")

#: Sentinel rule-set meaning "every rule" for a bare ``ignore``.
IGNORE_ALL = frozenset({"*"})


@dataclass(slots=True)
class ModuleInfo:
    """One parsed source file."""

    path: Path
    #: POSIX-style path relative to the invocation root — the stable
    #: identity used in findings.
    relpath: str
    tree: ast.Module
    #: line -> rules ignored on that line (:data:`IGNORE_ALL` for all).
    ignores: dict[int, frozenset[str]] = field(default_factory=dict)

    @property
    def basename(self) -> str:
        return self.path.name

    def is_ignored(self, line: int, rule: str) -> bool:
        rules = self.ignores.get(line)
        if rules is None:
            return False
        return rules is IGNORE_ALL or rule in rules


@dataclass(slots=True)
class ClassInfo:
    """One class definition, as seen by the AST index."""

    name: str
    module: ModuleInfo
    node: ast.ClassDef
    #: Direct base names (last attribute segment: ``abc.ABC`` -> "ABC").
    base_names: tuple[str, ...]
    has_slots: bool

    @property
    def line(self) -> int:
        return self.node.lineno


def _base_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):  # Generic[...] style bases
        return _base_name(node.value)
    return None


def _declares_slots(node: ast.ClassDef) -> bool:
    for stmt in node.body:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    for deco in node.decorator_list:
        # @dataclass(slots=True), possibly via an attribute reference.
        if isinstance(deco, ast.Call):
            name = _base_name(deco.func)
            if name == "dataclass":
                for kw in deco.keywords:
                    if (
                        kw.arg == "slots"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                    ):
                        return True
    return False


def _scan_pragmas(source: str) -> dict[int, frozenset[str]]:
    """Extract ``# repro:`` pragmas via the tokenizer (so comment-like
    text inside string literals cannot trigger them)."""
    ignores: dict[int, frozenset[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _PRAGMA.search(tok.string)
            if match is None:
                continue
            line = tok.start[0]
            rules = match.group("rules")
            if rules is None:
                ignores[line] = IGNORE_ALL
            else:
                names = frozenset(
                    r.strip() for r in rules.split(",") if r.strip()
                )
                previous = ignores.get(line, frozenset())
                if previous is IGNORE_ALL:
                    continue
                ignores[line] = names | previous
    except tokenize.TokenError:
        pass  # the ast parse below reports the real syntax problem
    return ignores


def _collect_files(roots: list[Path]) -> list[Path]:
    files: list[Path] = []
    for root in roots:
        if root.is_file():
            files.append(root)
        elif root.is_dir():
            files.extend(
                p
                for p in sorted(root.rglob("*.py"))
                if "__pycache__" not in p.parts
            )
        else:
            raise CheckError(f"no such file or directory: {root}")
    return files


class Project:
    """All modules under the scanned roots, parsed once."""

    def __init__(self, roots: list[str | Path], base: str | Path | None = None):
        self.base = Path(base) if base is not None else Path(os.getcwd())
        self.modules: list[ModuleInfo] = []
        self._classes: dict[str, list[ClassInfo]] = {}
        for path in _collect_files([Path(r) for r in roots]):
            self.modules.append(self._load(path))
        for module in self.modules:
            self._index_classes(module)

    def _load(self, path: Path) -> ModuleInfo:
        try:
            source = path.read_text()
        except OSError as exc:
            raise CheckError(f"cannot read {path}: {exc}") from exc
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            raise CheckError(f"cannot parse {path}: {exc}") from exc
        try:
            rel = path.resolve().relative_to(self.base.resolve())
            relpath = rel.as_posix()
        except ValueError:
            relpath = path.as_posix()
        return ModuleInfo(
            path=path,
            relpath=relpath,
            tree=tree,
            ignores=_scan_pragmas(source),
        )

    def _index_classes(self, module: ModuleInfo) -> None:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = tuple(
                name
                for name in (_base_name(b) for b in node.bases)
                if name is not None
            )
            info = ClassInfo(
                name=node.name,
                module=module,
                node=node,
                base_names=bases,
                has_slots=_declares_slots(node),
            )
            self._classes.setdefault(node.name, []).append(info)

    # -- class queries ----------------------------------------------------

    def classes_named(self, name: str) -> list[ClassInfo]:
        return self._classes.get(name, [])

    def iter_classes(self) -> Iterator[ClassInfo]:
        for infos in self._classes.values():
            yield from infos

    def is_subclass_of(self, info: ClassInfo, base: str) -> bool:
        """Whether ``info`` transitively subclasses a class named ``base``."""
        seen: set[str] = {info.name}
        frontier = list(info.base_names)
        while frontier:
            name = frontier.pop()
            if name == base:
                return True
            if name in seen:
                continue
            seen.add(name)
            for parent in self._classes.get(name, []):
                frontier.extend(parent.base_names)
        return False

    def subclasses_of(self, base: str) -> list[ClassInfo]:
        """Every indexed class transitively subclassing ``base``."""
        return [
            info
            for info in self.iter_classes()
            if info.name != base and self.is_subclass_of(info, base)
        ]

    def is_exception(self, info: ClassInfo) -> bool:
        """Heuristic: the class is an exception type (by ancestry where
        visible, by conventional naming otherwise)."""
        frontier = [info.name]
        seen: set[str] = set()
        while frontier:
            name = frontier.pop()
            if name in seen:
                continue
            seen.add(name)
            if name in ("Exception", "BaseException") or name.endswith(
                ("Error", "Exception", "Violation", "Warning")
            ):
                return True
            for parent in self._classes.get(name, []):
                frontier.extend(parent.base_names)
        return False
