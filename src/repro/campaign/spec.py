"""Declarative campaign specifications.

A campaign spec is a small JSON file describing a whole experiment
grid — the workload, the swept axes, and the fixed simulation
parameters — so a study is one reviewable artifact runnable with one
command (``repro campaign spec.json --workers 4``)::

    {
        "name": "policy-vs-cache-size",
        "trace": {"file": "oltp.csv"},
        "axes": {
            "policy": ["lru", "pa-lru"],
            "cache_blocks": [512, 2048, 8192]
        },
        "fixed": {"dpm": "practical"},
        "num_disks": 21
    }

Instead of a ``file``, the workload may name a generator, optionally
re-parameterized by axes routed through ``trace_params``::

    {
        "trace": {"workload": "synthetic",
                  "params": {"num_requests": 5000, "seed": 7}},
        "trace_params": ["write_ratio"],
        "axes": {"write_ratio": [0.0, 0.3, 0.6], "policy": ["lru"]}
    }

A workload *list* sweeps whole families as an implicit ``workload``
axis, optionally re-parameterized per family. The grid is
workload-major, and each worker (or the serial loop) generates a
family once and reuses it for every consecutive point of that family::

    {
        "trace": {"workload": ["dbms", "cdn", "tenant"],
                  "params": {"duration_s": 300},
                  "per_workload": {"cdn": {"num_disks": 18}}},
        "axes": {"policy": ["lru", "pa-lru"]},
        "num_disks": 18
    }

:func:`run_campaign` executes a spec through the campaign executor and
returns the familiar :class:`~repro.sim.sweep.SweepResult`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.errors import CampaignError
from repro.traces import WORKLOADS
from repro.traces.columnar import ColumnarTrace
from repro.traces.record import IORequest

#: The shared workload table. The factories below hash into
#: result-store keys by their source text, so the table, not their
#: bodies, is where a generator changes.
_GENERATORS: dict[str, tuple[type, Callable]] = WORKLOADS

_SPEC_KEYS = {
    "name",
    "trace",
    "trace_params",
    "axes",
    "fixed",
    "num_disks",
    "cache_blocks",
}


def generated_trace(workload: str, **params: Any) -> Sequence[IORequest]:
    """Build a trace from a named generator (picklable factory target)."""
    try:
        config_cls, generate = _GENERATORS[workload]
    except KeyError:
        raise CampaignError(
            f"unknown workload {workload!r}; expected one of "
            f"{sorted(_GENERATORS)}"
        ) from None
    try:
        return generate(config_cls(**params))
    except TypeError as exc:
        raise CampaignError(f"bad {workload} generator params: {exc}") from exc


def workload_cell_trace(
    workload: str,
    shared_params: dict | None = None,
    per_workload: dict | None = None,
    **overrides: Any,
) -> Sequence[IORequest]:
    """Per-grid-point factory for specs sweeping a ``workload`` axis.

    Merges, lowest precedence first: ``shared_params`` (the spec's
    ``trace.params``), the cell's entry in ``per_workload`` (the spec's
    ``trace.per_workload``), and any swept ``trace_params`` overrides.
    Picklable and partial-friendly, so the campaign result store can
    key cache entries on the bound arguments.
    """
    params = dict(shared_params or {})
    params.update((per_workload or {}).get(workload, {}))
    params.update(overrides)
    return generated_trace(workload, **params)


@dataclass
class CampaignSpec:
    """A validated experiment grid."""

    axes: dict[str, list[Any]]
    trace: dict[str, Any]
    fixed: dict[str, Any] = field(default_factory=dict)
    trace_params: tuple[str, ...] = ()
    num_disks: int | None = None
    cache_blocks: int | None = 2048
    name: str = "campaign"
    #: Directory trace file paths are resolved against.
    base_dir: Path = field(default_factory=Path)

    def __post_init__(self) -> None:
        workload = self.trace.get("workload")
        if isinstance(workload, (list, tuple)):
            # A workload list is an implicit "workload" axis placed
            # first, so the grid is workload-major: every family is one
            # contiguous slice, and the executor generates it once per
            # slice in each worker rather than once per point.
            if not workload or not all(isinstance(w, str) for w in workload):
                raise CampaignError(
                    "'trace.workload' list must be non-empty workload names"
                )
            if "workload" in self.axes or "workload" in self.fixed:
                raise CampaignError(
                    "a workload list already defines the 'workload' axis"
                )
            self.axes = {"workload": list(workload), **self.axes}
            self.trace_params = tuple(self.trace_params) + ("workload",)
        per_workload = self.trace.get("per_workload")
        if per_workload is not None:
            if not isinstance(workload, (list, tuple)):
                raise CampaignError(
                    "'trace.per_workload' needs a 'trace.workload' list"
                )
            unknown_pw = set(per_workload) - set(workload)
            if unknown_pw:
                raise CampaignError(
                    f"per_workload entries not in the workload list: "
                    f"{sorted(unknown_pw)}"
                )
        if not self.axes:
            raise CampaignError("campaign spec needs at least one axis")
        for axis, values in self.axes.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise CampaignError(
                    f"axis {axis!r} must be a non-empty list of values"
                )
        overlap = set(self.fixed) & set(self.axes)
        if overlap:
            raise CampaignError(
                f"parameters both fixed and swept: {sorted(overlap)}"
            )
        unknown_tp = set(self.trace_params) - set(self.axes)
        if unknown_tp:
            raise CampaignError(
                f"trace_params not in axes: {sorted(unknown_tp)}"
            )
        has_file = "file" in self.trace
        has_workload = "workload" in self.trace
        if has_file == has_workload:
            raise CampaignError(
                "spec 'trace' needs exactly one of 'file' or 'workload'"
            )
        if self.trace_params and has_file:
            raise CampaignError(
                "trace_params requires a generated workload, not a trace file"
            )

    @classmethod
    def from_dict(
        cls, data: dict[str, Any], base_dir: str | Path = "."
    ) -> "CampaignSpec":
        if not isinstance(data, dict):
            raise CampaignError("campaign spec must be a JSON object")
        unknown = set(data) - _SPEC_KEYS
        if unknown:
            raise CampaignError(f"unknown spec keys: {sorted(unknown)}")
        for required in ("axes", "trace"):
            if required not in data:
                raise CampaignError(f"campaign spec is missing {required!r}")
        return cls(
            axes=dict(data["axes"]),
            trace=dict(data["trace"]),
            fixed=dict(data.get("fixed", {})),
            trace_params=tuple(data.get("trace_params", ())),
            num_disks=data.get("num_disks"),
            cache_blocks=data.get("cache_blocks", 2048),
            name=data.get("name", "campaign"),
            base_dir=Path(base_dir),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "CampaignSpec":
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except FileNotFoundError:
            raise CampaignError(f"no campaign spec at {path}") from None
        except json.JSONDecodeError as exc:
            raise CampaignError(f"{path} is not valid JSON: {exc}") from exc
        spec = cls.from_dict(data, base_dir=path.parent)
        if spec.name == "campaign":
            spec.name = path.stem
        return spec

    def grid_size(self) -> int:
        return math.prod(len(values) for values in self.axes.values())

    def load_workload(self) -> ColumnarTrace | Callable:
        """The fixed trace, or a picklable per-point factory."""
        if "file" in self.trace:
            return ColumnarTrace.from_csv(self.base_dir / self.trace["file"])
        workload = self.trace["workload"]
        params = dict(self.trace.get("params", {}))
        if isinstance(workload, (list, tuple)):
            return partial(
                workload_cell_trace,
                shared_params=params,
                per_workload=dict(self.trace.get("per_workload") or {}),
            )
        if self.trace_params:
            return partial(generated_trace, workload, **params)
        return generated_trace(workload, **params)

    def resolve_num_disks(self, workload) -> int:
        """Explicit ``num_disks``, or inferred from a fixed workload."""
        if self.num_disks is not None:
            return self.num_disks
        if callable(workload):
            raise CampaignError(
                "num_disks must be given when the workload is generated "
                "per grid point"
            )
        return workload.num_disks()


def run_campaign(
    spec: CampaignSpec,
    *,
    workers: int = 1,
    store=None,
    journal=None,
    retry=None,
    on_error: str = "record",
):
    """Execute a campaign spec; returns its
    :class:`~repro.sim.sweep.SweepResult`.

    Campaigns default to ``on_error="record"``: a failing grid point is
    journaled and skipped rather than aborting the run.
    """
    from repro.sim.sweep import grid_sweep

    workload = spec.load_workload()
    return grid_sweep(
        workload,
        axes=spec.axes,
        trace_params=spec.trace_params,
        num_disks=spec.resolve_num_disks(workload),
        cache_blocks=spec.cache_blocks,
        workers=workers,
        store=store,
        journal=journal,
        retry=retry,
        on_error=on_error,
        **spec.fixed,
    )
