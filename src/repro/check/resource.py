"""Resource-lifecycle checker: every acquire reaches its release.

The hot resources in this codebase are not garbage-collected away: a
POSIX shared-memory segment from ``trace.share()`` outlives the
process unless ``unlink()`` runs, a checkpoint/result tmp file from
``mkstemp`` litters the store directory, and an armed fault-injection
crash point corrupts every later test if never disarmed. This pack
proves, on the function's CFG (exception edges included), that every
tracked **acquisition** (``*.share()``, ``tempfile.mkstemp`` and
friends, ``arm*()``) reaches a **release** (``close``/``unlink`` /
``os.replace``/``cleanup``/``disarm`` ...) on *all* paths to both the
normal and the exceptional exit.

Precision rules, chosen to keep the repo's own idioms clean:

* ``with`` acquisition is always safe (the context manager releases);
* a handle that *escapes* — returned, yielded, stored on an object,
  re-aliased, or passed to a call that is not a release — transfers
  ownership, so the function is no longer responsible;
* a release guarded by ``if`` (``if shm is not None: shm.close()``,
  ``if os.path.exists(tmp): os.unlink(tmp)``) counts as releasing at
  the guard itself: reaching the test means the cleanup decision ran.
  The analysis does not model the guard's truth value, so a guard
  whose condition never allows the release is a known false negative.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.check.base import Checker, call_name, register
from repro.check.finding import Finding
from repro.check.flow.callgraph import get_call_graph
from repro.check.flow.cfg import CFG, EXC, Block
from repro.check.project import ModuleInfo, Project

#: Acquire call name -> names whose call releases/neutralises the handle.
_ACQUIRE_SPECS: dict[str, frozenset[str]] = {
    "share": frozenset({"close", "unlink"}),
    "mkstemp": frozenset(
        {"close", "unlink", "replace", "remove", "rename", "fdopen"}
    ),
    "mkdtemp": frozenset({"rmtree", "rmdir", "replace", "rename"}),
    "NamedTemporaryFile": frozenset({"close", "unlink", "replace"}),
    "TemporaryDirectory": frozenset({"cleanup"}),
}

#: ``arm``/``arm_*`` acquisitions (fault-injection crash points).
_ARM_RELEASES = frozenset({"disarm", "reset"})

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _acquire_releases(name: str | None) -> frozenset[str] | None:
    if name is None:
        return None
    if name in _ACQUIRE_SPECS:
        return _ACQUIRE_SPECS[name]
    if name == "arm" or name.startswith("arm_"):
        return _ARM_RELEASES
    return None


def _resource_kind(name: str) -> str:
    if name == "share":
        return "shared-memory segment"
    if name == "arm" or name.startswith("arm_"):
        return "armed crash point"
    return "temporary file"


@register
class ResourceChecker(Checker):
    """Acquire/release reachability on the CFG (see module docstring)."""

    rule = "resource"
    description = (
        "acquired resources (shm segments, tmp files, armed crash "
        "points) must be released on all paths, exception edges "
        "included"
    )
    guidance = (
        "Put the release in a `finally:` (or hand the handle to a "
        "context manager) so the exceptional path runs it too. "
        "Guarding the cleanup with `if handle is not None:` is fine — "
        "the guard itself counts as the release point."
    )
    example = (
        "executor.py:88: error[resource] shared-memory segment `shm` "
        "from `share()` leaks on the exception path: no "
        "close/unlink before the function unwinds"
    )

    def check(
        self, module: ModuleInfo, project: Project
    ) -> Iterator[Finding]:
        graph = get_call_graph(project)
        for info in graph.functions.values():
            if info.module is not module:
                continue
            yield from self._check_acquisitions(module, info, info.cfg)

    # -- acquire/release --------------------------------------------------

    def _check_acquisitions(
        self, module: ModuleInfo, info, cfg: CFG
    ) -> Iterator[Finding]:
        seen_nodes: set[int] = set()
        for block in cfg.blocks:
            node = block.node
            if not isinstance(node, ast.Assign):
                continue
            if id(node) in seen_nodes:  # finally bodies are duplicated
                continue
            seen_nodes.add(id(node))
            value = node.value
            if not isinstance(value, ast.Call):
                continue
            releases = _acquire_releases(call_name(value.func))
            if releases is None:
                continue
            acquire_name = call_name(value.func)
            names = _bound_names(node.targets)
            if not names:
                continue
            yield from self._check_one_acquisition(
                module, info, cfg, block, node, acquire_name, names,
                releases,
            )

    def _check_one_acquisition(
        self,
        module: ModuleInfo,
        info,
        cfg: CFG,
        block: Block,
        node: ast.Assign,
        acquire_name: str,
        names: list[str],
        releases: frozenset[str],
    ) -> Iterator[Finding]:
        kind = _resource_kind(acquire_name)
        released: list[tuple[str, list[ast.AST]]] = []
        any_escape = False
        for name in names:
            uses = _classify_uses(info.node, node, name, releases)
            if uses.escapes:
                any_escape = True
                continue
            if uses.release_nodes:
                released.append((name, uses.release_nodes))
        if not released:
            if any_escape:
                return  # ownership handed off; not this function's job
            yield self.finding(
                module,
                node,
                f"{kind} `{'/'.join(names)}` from `{acquire_name}()` is "
                f"acquired but never released (expected one of: "
                f"{', '.join(sorted(releases))})",
            )
            return
        # reachability per handle: releasing one bound name (say the fd
        # of an ``fd, tmp = mkstemp()`` pair) says nothing about the
        # other name's path coverage
        for name, release_nodes in released:
            kill = self._kill_blocks(cfg, info.node, release_nodes)
            leaks = _leak_paths(cfg, block, kill)
            if leaks:
                yield self.finding(
                    module,
                    node,
                    f"{kind} `{name}` from `{acquire_name}()` leaks on "
                    f"the {' and '.join(leaks)} path: a release exists "
                    "but is not reached on every path; move it to a "
                    "finally block",
                )

    # -- CFG mechanics ----------------------------------------------------

    def _kill_blocks(
        self, cfg: CFG, fn_node: ast.AST, release_nodes: list[ast.AST]
    ) -> set[int]:
        """Block ids where the resource is considered released.

        A release inside an ``if`` also kills at the guard's condition
        blocks: reaching the test means the guarded-cleanup idiom ran.
        """
        release_set = set(map(id, release_nodes))
        guard_tests: list[ast.expr] = []
        for release in release_nodes:
            guard = _innermost_if(fn_node, release)
            if guard is not None:
                guard_tests.append(guard.test)
        guard_exprs = set()
        for test in guard_tests:
            guard_exprs.update(map(id, ast.walk(test)))
        kill: set[int] = set()
        for block in cfg.blocks:
            node = block.node
            if node is None:
                continue
            if id(node) in guard_exprs:
                kill.add(block.id)
                continue
            for sub in ast.walk(node):
                if id(sub) in release_set:
                    kill.add(block.id)
                    break
        return kill


class _Uses:
    __slots__ = ("release_nodes", "escapes")

    def __init__(self) -> None:
        self.release_nodes: list[ast.AST] = []
        self.escapes = False


def _bound_names(targets: list[ast.expr]) -> list[str]:
    names: list[str] = []
    for target in targets:
        if isinstance(target, ast.Name):
            names.append(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for el in target.elts:
                if isinstance(el, ast.Name):
                    names.append(el.id)
    return names


def _classify_uses(
    fn_node: ast.AST,
    acquire: ast.Assign,
    name: str,
    releases: frozenset[str],
) -> _Uses:
    """How ``name`` is used after its acquisition."""
    uses = _Uses()
    stack: list[ast.AST] = list(fn_node.body)
    nodes: list[ast.AST] = []
    while stack:
        node = stack.pop()
        if isinstance(node, _SCOPE_NODES):
            continue
        nodes.append(node)
        stack.extend(ast.iter_child_nodes(node))
    for node in nodes:
        if isinstance(node, ast.Call):
            # handle.release()
            if (
                isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == name
            ):
                if node.func.attr in releases:
                    uses.release_nodes.append(node)
                else:
                    uses.escapes = True  # unknown method may stash it
                continue
            # os.unlink(handle) / os.replace(handle, dst) / fdopen(fd)
            arg_hit = any(
                isinstance(arg, ast.Name) and arg.id == name
                for arg in node.args
            ) or any(
                isinstance(kw.value, ast.Name) and kw.value.id == name
                for kw in node.keywords
            )
            if arg_hit:
                if call_name(node.func) in releases:
                    uses.release_nodes.append(node)
                elif call_name(node.func) in (
                    "str", "repr", "print", "len",
                    "exists", "isfile", "isdir",  # guard predicates
                ):
                    pass  # pure observation, no ownership transfer
                else:
                    uses.escapes = True
        elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
            value = node.value
            if value is not None and _mentions(value, name):
                uses.escapes = True
        elif isinstance(node, ast.Assign) and node is not acquire:
            if _mentions(node.value, name):
                uses.escapes = True  # re-aliased
            for target in node.targets:
                if isinstance(
                    target, (ast.Attribute, ast.Subscript)
                ) and _mentions(target, name):
                    uses.escapes = True
    return uses


def _mentions(node: ast.AST, name: str) -> bool:
    return any(
        isinstance(sub, ast.Name) and sub.id == name
        for sub in ast.walk(node)
    )


def _innermost_if(fn_node: ast.AST, target: ast.AST) -> ast.If | None:
    """The innermost ``if`` statement whose *body/orelse* contains
    ``target`` (None when unguarded)."""
    best: ast.If | None = None

    def descend(node: ast.AST, current: ast.If | None) -> bool:
        nonlocal best
        if node is target:
            best = current
            return True
        if isinstance(node, _SCOPE_NODES) and node is not fn_node:
            return False
        if isinstance(node, ast.If):
            if any(descend(child, node) for child in node.body):
                return True
            if any(descend(child, node) for child in node.orelse):
                return True
            return descend(node.test, current)
        return any(
            descend(child, current) for child in ast.iter_child_nodes(node)
        )

    descend(fn_node, None)
    return best


def _leak_paths(cfg: CFG, start: Block, kill: set[int]) -> list[str]:
    """Which exits (normal/exception) are reachable with the resource
    still live, starting after a successful acquisition."""
    seen: set[int] = set()
    frontier: list[Block] = [
        succ
        for succ, edge_kind in start.succs
        if edge_kind != EXC  # acquire itself raising means: not acquired
    ]
    reached_exit = False
    reached_exc = False
    while frontier:
        block = frontier.pop()
        if block.id in seen or block.id in kill:
            continue
        seen.add(block.id)
        if block is cfg.exit:
            reached_exit = True
            continue
        if block is cfg.exc_exit:
            reached_exc = True
            continue
        frontier.extend(succ for succ, _ in block.succs)
    leaks: list[str] = []
    if reached_exit:
        leaks.append("normal")
    if reached_exc:
        leaks.append("exception")
    return leaks
