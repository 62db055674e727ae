"""reprolint — domain-aware static analysis for this codebase.

The simulator carries invariants that unit tests only catch at runtime:
bit-identity between the inlined fast paths and the polymorphic loops,
fixed base units (seconds / joules / watts / bytes), seeded-RNG
determinism, and the typed event vocabulary of :mod:`repro.observe`.
This package checks those invariants *statically*, over the AST, so a
violation fails ``repro check`` (and the ``static-analysis`` CI job)
before a simulation ever runs.

Eight domain checkers ship by default (see :data:`repro.check.base.CHECKERS`):

* ``determinism`` — unseeded ``random``/``np.random`` use, wall-clock
  reads outside journaling code, iteration over unordered sets.
* ``units`` — raw literal conversion factors (``* 1000``, ``/ 1e3``)
  on unit-suffixed values that bypass :mod:`repro.units`.
* ``unitsflow`` — flow-sensitive unit inference over the CFG and the
  project call graph: mixed-unit assignment, return drift, argument
  drift, mixed-dimension ``+``/``-`` (see :mod:`repro.check.flow`).
* ``asyncsafe`` — blocking calls reachable from ``async def`` bodies
  (directly or through any resolved sync call chain) and ``await``
  while holding a synchronous lock.
* ``resource`` — CFG reachability proving acquired resources (shm
  segments, tmp files, armed crash points) are released on all paths,
  exception edges included.
* ``fastpath`` — every concrete ``ReplacementPolicy`` / ``WritePolicy``
  / ``DiskPowerManager`` subclass must appear in the
  ``FAST_PATH_AUDITED`` gate registry in :mod:`repro.sim.engine`.
* ``events`` — ``probe(...)`` emissions must construct a declared
  :class:`~repro.observe.events.Event` subclass, and every event class
  must have at least one emission site.
* ``slots`` — classes instantiated inside the hot loop must declare
  ``__slots__``.

Findings can be silenced per line with ``# repro: ignore[rule]``, the
only suppression there is: no file holds accepted findings.
"""

from __future__ import annotations

from repro.check.base import CHECKERS, Checker, register
from repro.check.finding import Finding, Severity
from repro.check.project import ClassInfo, ModuleInfo, Project
from repro.check.runner import Report, run_check

# Importing the checker modules registers them with CHECKERS.
from repro.check import (  # noqa: E402,F401  (registration side effect)
    asyncsafe,
    determinism,
    events,
    fastpath,
    resource,
    slots,
    units,
    unitsflow,
)

__all__ = [
    "CHECKERS",
    "Checker",
    "ClassInfo",
    "Finding",
    "ModuleInfo",
    "Project",
    "Report",
    "Severity",
    "register",
    "run_check",
]
