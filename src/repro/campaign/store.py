"""Content-addressed on-disk result store.

Each completed grid point is persisted as one JSON file named by its
*result key* — a SHA-256 over three ingredients:

1. a **workload token**: the trace fingerprint
   (:func:`repro.traces.fingerprint.trace_fingerprint`) for a fixed
   trace, or the factory's source hash plus its per-point arguments
   for generated workloads;
2. the **simulation parameters**: the grid point's full keyword set,
   canonically JSON-encoded (sorted keys);
3. a **code-version salt**: a hash over every ``.py`` source file of
   the installed ``repro`` package, so editing the simulator silently
   invalidates every cached result instead of serving stale numbers.

Entries are written atomically (tempfile + ``fsync`` + ``os.replace``,
so a crash mid-write leaves either the old entry or the new one, never
a torn file; stale temporaries are swept on open) and sharded
into two-character subdirectories to keep directory listings small on
large campaigns.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import tempfile
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.errors import CampaignError
from repro.sim.results import SimulationResult
from repro.traces.fingerprint import trace_fingerprint
from repro.traces.record import IORequest

_STORE_FORMAT = 1


@lru_cache(maxsize=1)
def code_version_salt() -> str:
    """Hash of the installed ``repro`` sources (cached per process)."""
    package_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def callable_token(fn: Callable) -> str:
    """Stable identity for a trace factory: qualname + source hash.

    Falls back to the qualified name alone when the source is
    unavailable (builtins, C extensions); ``functools.partial`` objects
    are unwrapped so the bound arguments participate in the token.
    """
    from functools import partial

    if isinstance(fn, partial):
        bound = json.dumps(
            {"args": fn.args, "kwargs": fn.keywords},
            sort_keys=True,
            default=repr,
        )
        return f"partial({callable_token(fn.func)},{bound})"
    name = f"{getattr(fn, '__module__', '?')}.{getattr(fn, '__qualname__', repr(fn))}"
    try:
        source = inspect.getsource(fn)
    except (OSError, TypeError):
        return name
    return f"{name}#{hashlib.sha256(source.encode()).hexdigest()[:16]}"


def trace_args_token(trace_args: dict[str, Any] | None) -> str:
    """Canonical form of a trace factory's arguments."""
    return json.dumps(trace_args or {}, sort_keys=True, default=repr)


def workload_token(
    trace: Sequence[IORequest] | Callable,
    trace_args: dict[str, Any] | None = None,
) -> str:
    """Identity of the workload a grid point runs against."""
    if callable(trace):
        args = trace_args_token(trace_args)
        return f"factory:{callable_token(trace)}:{args}"
    return f"trace:{trace_fingerprint(trace)}"


def result_key(
    workload: str,
    run_kwargs: dict[str, Any],
    *,
    salt: str | None = None,
) -> str:
    """The content address of one grid point's result."""
    payload = json.dumps(
        {
            "format": _STORE_FORMAT,
            "workload": workload,
            "kwargs": run_kwargs,
            "salt": salt if salt is not None else code_version_salt(),
        },
        sort_keys=True,
        default=repr,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class ResultStore:
    """Directory of content-addressed simulation results.

    Opening a store sweeps out ``*.tmp`` droppings left by writers that
    crashed between ``mkstemp`` and ``os.replace`` — they are invisible
    to lookups but would otherwise accumulate forever.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        for stale in self.root.glob("*/*.tmp"):
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - concurrent sweep
                pass

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))

    def get(self, key: str) -> SimulationResult | None:
        """The cached result for ``key``, or ``None`` on a miss."""
        path = self._path(key)
        if not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
            return SimulationResult.from_dict(payload["result"])
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise CampaignError(f"corrupt store entry {path}: {exc}") from exc

    def put(
        self,
        key: str,
        result: SimulationResult,
        params: dict[str, Any] | None = None,
    ) -> None:
        """Persist ``result`` under ``key`` (atomic, last write wins)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "format": _STORE_FORMAT,
            "key": key,
            "params": params or {},
            "result": result.to_dict(),
        }
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh, default=repr)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
