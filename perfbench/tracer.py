"""Span recorder for the traced benchmark run.

The benchmark measures each layer from the outside: :meth:`Tracer.install`
replaces the public entry points named in :data:`PATCHES` with thin
wrappers that record one span per call.  Each wrapper is set where the
caller looks the name up (a module attribute such as
``repro.core.kernels.bloom_cold_mask`` or ``repro.serve.daemon.
parse_request_line``, or a class attribute such as
``StorageCache.access``), so the program itself is unchanged.

Spans are kept in flat in-memory columns (name, start, end, parent,
value) and written out once, when the run ends.  :meth:`Tracer.summary`
derives per-name totals, call counts, self times (a span's duration
minus the part its child spans cover) and the top-level time of a span
range, from which the benchmark takes each workload's residual.

A span's *value* is an optional number the wrapper reads off the call
(rows returned, bytes written, queue depth), summed or maxed per name.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

#: The seven ``@batch_kernel`` entry points of ``repro.core.kernels``.
KERNELS = (
    "bloom_cold_mask",
    "epoch_boundary_table",
    "epoch_roll_counts",
    "histogram_counts",
    "histogram_quantile",
    "next_access_arrays",
    "first_times_by_disk",
)


def _rows(args, result) -> float:
    return float(len(result))


def _import_rows(args, result) -> float:
    trace, _summary = result
    return float(len(trace))


def _file_bytes(args, result) -> float:
    return float(Path(result).stat().st_size)


def _queue_depth(args, result) -> float:
    daemon = args[0]
    return float(len(daemon.queue))


#: ``(owner, attribute, span name, value hook)``.  ``owner`` is a
#: module path or ``module:Class``; the hook maps ``(args, result)`` to
#: the span's value.
PATCHES: tuple[tuple[str, str, str, object], ...] = (
    ("repro.traces.oltp", "generate_oltp_trace_columnar", "traces.generate", _rows),
    ("repro.traces.cello", "generate_cello_trace_columnar", "traces.generate", _rows),
    ("repro.traces.zoo", "generate_dbms_trace", "traces.generate", _rows),
    ("repro.traces.zoo", "generate_cdn_trace", "traces.generate", _rows),
    ("repro.traces.zoo", "generate_tenant_trace", "traces.generate", _rows),
    ("repro.traces.ingest", "import_trace", "traces.import", _import_rows),
    ("repro.traces.columnar:ColumnarTrace", "as_lists", "traces.as_lists", None),
    *(
        ("repro.core.kernels", name, f"core.kernels.{name}", None)
        for name in KERNELS
    ),
    ("repro.core.opg:OPGPolicy", "prepare_columnar", "core.opg.prepare", None),
    ("repro.sim.engine:StorageSimulator", "run", "sim.run", None),
    ("repro.sim.engine:StorageSimulator", "finish", "sim.finish", None),
    ("repro.sim.engine:StorageSimulator", "handle_request", "sim.handle_request", None),
    ("repro.serve.daemon", "restore_session", "sim.restore", None),
    ("repro.sim.session:SimulationSession", "feed", "sim.feed", _rows),
    ("repro.sim.session:SimulationSession", "checkpoint", "sim.checkpoint", None),
    ("repro.serve.daemon", "save_checkpoint", "sim.checkpoint_write", _file_bytes),
    ("repro.cache.cache:StorageCache", "access", "cache.access", None),
    ("repro.disk.array:DiskArray", "submit", "disk.submit", None),
    ("repro.observe.bus:EventBus", "__call__", "observe.dispatch", None),
    ("repro.campaign.store:ResultStore", "put", "campaign.store_put", None),
    ("repro.campaign.journal:RunJournal", "write", "campaign.journal", None),
    ("repro.serve.daemon", "parse_request_line", "serve.parse", None),
    ("repro.serve.daemon:ServeDaemon", "ingest", "serve.ingest", _queue_depth),
)

#: Write-policy hooks, patched on every class that defines them.
WRITE_HOOKS = ("on_write", "on_evicted", "after_read_wake")


@dataclass
class NameStats:
    """Aggregates of one span name over a span range."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    value_sum: float = 0.0
    value_max: float = 0.0


@dataclass
class Summary:
    """What :meth:`Tracer.summary` derives from a span range."""

    by_name: dict[str, NameStats] = field(default_factory=dict)
    #: Summed duration of spans with no parent inside the range.
    top_level_s: float = 0.0

    def get(self, name: str) -> NameStats:
        return self.by_name.get(name, NameStats())


class Tracer:
    """In-memory span columns plus the patch table that feeds them."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.value = array("d")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def mark(self) -> int:
        """Span index to bound a range for :meth:`summary`."""
        return len(self.start)

    def wrap(self, fn, name: str, hook=None):
        """``fn`` recording one span per call under ``name``."""
        idx = self.name_id(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(idx)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            self.value.append(0.0)
            stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()
            if hook is not None:
                self.value[i] = hook(args, result)
            return result

        return traced

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Swap every :data:`PATCHES` target for its span wrapper."""
        for owner_path, attr, name, hook in PATCHES:
            self._patch(_resolve(owner_path), attr, name, hook)
        from repro.cache.write.base import WritePolicy

        for cls in _subclasses(WritePolicy):
            for attr in WRITE_HOOKS:
                if attr in vars(cls):
                    self._patch(cls, attr, "cache.write", None)
        # Forked campaign workers inherit the patches but report no
        # spans; give them the original functions back.
        os.register_at_fork(after_in_child=self._uninstall_in_child)

    def _patch(self, owner, attr: str, name: str, hook) -> None:
        original = vars(owner)[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, hook))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _uninstall_in_child(self) -> None:
        if self._undo:
            self.uninstall()

    # -- derivation ------------------------------------------------------

    def summary(self, lo: int, hi: int) -> Summary:
        """Per-name totals and self times over spans ``[lo, hi)``."""
        child_s = [0.0] * (hi - lo)
        out = Summary()
        for i in range(hi - 1, lo - 1, -1):
            duration = self.end[i] - self.start[i]
            p = self.parent[i]
            if p >= lo:
                child_s[p - lo] += duration
            else:
                out.top_level_s += duration
            stats = out.by_name.get(self.names[self.name[i]])
            if stats is None:
                stats = out.by_name[self.names[self.name[i]]] = NameStats()
            stats.calls += 1
            stats.total_s += duration
            stats.self_s += duration - child_s[i - lo]
            stats.value_sum += self.value[i]
            stats.value_max = max(stats.value_max, self.value[i])
        return out

    def write(self, path: Path) -> None:
        """Dump every span as ``name start end parent value`` lines."""
        with open(path, "w") as fh:
            fh.write("name\tstart_s\tend_s\tparent\tvalue\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f"{names[self.name[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.value[i]:g}\n"
                )


def _resolve(owner_path: str):
    module_path, _, class_name = owner_path.partition(":")
    owner = importlib.import_module(module_path)
    return getattr(owner, class_name) if class_name else owner


def _subclasses(cls) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found
