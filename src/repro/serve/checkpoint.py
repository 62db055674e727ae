"""Checkpoint files: persist and restore live sessions.

The on-disk format is the state-snapshot
:class:`~repro.sim.session.SessionCheckpoint` as a single JSON document

.. code-block:: json

    {
      "format": "repro-serve-checkpoint",
      "version": 2,
      "params": {"policy": "pa-lru", "...": "..."},
      "state": {"type": "SimulationSession", "served": 10000,
                "watermark": 1234.5, "simulator": {"...": "..."}},
      "metrics": {"type": "MetricsSink", "ingest_accepted": 10000,
                  "ingest_rejected": 0, "last_queue_depth": 1}
    }

written atomically (temp file + rename, the
:class:`~repro.campaign.store.ResultStore` discipline) so a crash
mid-checkpoint never leaves a truncated file behind. ``state`` holds
each component's ``state_dict()`` (:mod:`repro.snapshot`); ``metrics``
holds the daemon's ingest counters
(:func:`repro.serve.metrics.ingest_state`), or is ``null`` for a
checkpoint written outside a daemon. Every other ``/metrics`` series
is read from ``state``'s ledgers and response samples, so a checkpoint
carries no latency state. Restore rebuilds
the session from ``params`` and loads ``state`` into it without
replaying a request, and the restored daemon's continuation is
bit-identical to one that never stopped (enforced by the property
test and the serve-smoke CI job).

Version 1 files carried the whole request log for a replay; they are
refused with an error that names the version.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.errors import ServeError
from repro.sim.session import SessionCheckpoint

FORMAT_NAME = "repro-serve-checkpoint"
FORMAT_VERSION = 2

#: Checkpoint files are named ``checkpoint-<served>.json``.
FILE_PREFIX = "checkpoint-"
FILE_SUFFIX = ".json"


def save_checkpoint(checkpoint: SessionCheckpoint, path: str | Path) -> Path:
    """Write one checkpoint atomically; returns the final path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        **checkpoint.to_dict(),
    }
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w") as fh:
        fh.write(json.dumps(document, separators=(",", ":")))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


def checkpoint_path(directory: str | Path, served: int) -> Path:
    return Path(directory) / f"{FILE_PREFIX}{served:012d}{FILE_SUFFIX}"


def load_checkpoint(path: str | Path) -> SessionCheckpoint:
    """Read and validate one checkpoint file."""
    path = Path(path)
    try:
        document = json.loads(path.read_text())
    except FileNotFoundError:
        raise ServeError(f"no checkpoint at {path}") from None
    except json.JSONDecodeError as exc:
        raise ServeError(f"corrupt checkpoint {path}: {exc}") from exc
    if not isinstance(document, dict):
        document = {}
    if document.get("format") != FORMAT_NAME:
        raise ServeError(
            f"{path} is not a serve checkpoint "
            f"(format={document.get('format')!r})"
        )
    version = document.get("version")
    if version == 1:
        raise ServeError(
            f"{path} is a version 1 checkpoint (a request log to replay), "
            "which this build cannot restore; checkpoints are now "
            f"version {FORMAT_VERSION} state snapshots"
        )
    if version != FORMAT_VERSION:
        raise ServeError(
            f"{path} has unsupported checkpoint version "
            f"{version!r} (expected {FORMAT_VERSION})"
        )
    try:
        return SessionCheckpoint.from_dict(document)
    except (KeyError, TypeError, ValueError) as exc:
        raise ServeError(f"corrupt checkpoint {path}: {exc}") from exc


def latest_checkpoint(directory: str | Path) -> Path | None:
    """The newest checkpoint file in a directory, or ``None``.

    "Newest" means most requests served — encoded in the zero-padded
    file name, so lexicographic order is request order.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return None
    candidates = sorted(
        p
        for p in directory.iterdir()
        if p.name.startswith(FILE_PREFIX) and p.name.endswith(FILE_SUFFIX)
    )
    return candidates[-1] if candidates else None
