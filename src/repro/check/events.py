"""Event-coverage checker.

The observability layer (:mod:`repro.observe`) is only trustworthy if
the event vocabulary and the emission sites stay in sync:

* every ``probe(...)`` emission must construct a declared
  :class:`~repro.observe.events.Event` subclass — emitting an ad-hoc
  object would silently fall through every typed sink and the
  invariant checker;
* every declared event class must have at least one construction site
  in the scanned tree — an event nobody emits is dead vocabulary that
  consumers may still be waiting for.

Event classes are recognised structurally: any class transitively
subclassing a class named ``Event``. Emission sites are calls whose
target is (or ends in) one of the publishing conventions — the
engine's ``self.probe(...)``/bare ``probe(...)``, the generic
``emit``/``publish``, and a direct ``bus(...)`` dispatch (an
:class:`~repro.observe.bus.EventBus` is callable).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.check.base import Checker, call_name, register
from repro.check.finding import Finding, Severity
from repro.check.project import ModuleInfo, Project

EVENT_BASE = "Event"

#: Call targets treated as event publishers. ``bus`` covers a direct
#: EventBus dispatch (``bus(Event(...))``); no module in the tree
#: dispatches that way now, but dropping it would let one slip by.
_PROBE_NAMES = frozenset({"probe", "emit", "publish", "bus"})


def _event_class_names(project: Project) -> set[str]:
    return {info.name for info in project.subclasses_of(EVENT_BASE)}


def _constructions(project: Project) -> dict[str, list[ModuleInfo]]:
    """Class name -> modules containing a construction call of it."""
    sites: dict[str, list[ModuleInfo]] = {}
    for module in project.modules:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = call_name(node.func)
                if name is not None:
                    sites.setdefault(name, []).append(module)
    return sites


@register
class EventCoverageChecker(Checker):
    rule = "events"
    description = (
        "probe() emissions must construct declared Event classes, and "
        "every Event class needs an emission site"
    )
    guidance = (
        "Emit only subclasses of Event through probe()/bus(); if an "
        "Event class is never constructed anywhere, wire up its "
        "emission site or delete the dead declaration."
    )
    example = (
        "engine.py:310:9: error[events] probe() called with "
        "NotAnEvent(...), which is not an Event subclass"
    )

    def check(
        self, module: ModuleInfo, project: Project
    ) -> Iterator[Finding]:
        events = _event_class_names(project)
        if not events:
            return
        yield from self._check_emissions(module, project, events)
        yield from self._check_coverage(module, project, events)

    def _check_emissions(
        self, module: ModuleInfo, project: Project, events: set[str]
    ) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = call_name(node.func)
            if target not in _PROBE_NAMES or not node.args:
                continue
            payload = node.args[0]
            if not isinstance(payload, ast.Call):
                continue  # a pre-built event in a variable — fine
            cls = call_name(payload.func)
            if cls is None or cls in events:
                continue
            infos = project.classes_named(cls)
            if not infos:
                continue  # not a class we can see (factory helper etc.)
            yield self.finding(
                module,
                payload,
                f"{target}() called with {cls}(...), which is not an "
                f"{EVENT_BASE} subclass; typed sinks and the invariant "
                "checker will not see it — define it in "
                "observe/events.py",
            )

    def _check_coverage(
        self, module: ModuleInfo, project: Project, events: set[str]
    ) -> Iterator[Finding]:
        sites = _constructions(project)
        for info in project.subclasses_of(EVENT_BASE):
            if info.module is not module:
                continue  # report at the definition site only
            if info.name not in sites:
                yield self.finding(
                    module,
                    info.node,
                    f"event class {info.name} is never constructed in "
                    "the scanned tree; either emit it or retire it "
                    "from the vocabulary",
                    severity=Severity.WARNING,
                )
