"""Output checks shared by the workloads.

A failed check raises :class:`CheckFailed`; the benchmark then reports
``"correct": false`` and exits non-zero.
"""

from __future__ import annotations

import json
import os
from pathlib import Path


class CheckFailed(Exception):
    """An output of the program under test is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def same_digests(label: str, digests: list[str]) -> None:
    """Every timed unit of a run must produce the same result."""
    require(
        len(set(digests)) <= 1,
        f"{label}: result digest differs between runs "
        f"({len(set(digests))} distinct over {len(digests)})",
    )


class DigestLedger:
    """Result digests of earlier runs in this checkout, by key.

    A run with the same workload, seed and sizes must reproduce the
    digest an earlier run recorded; the first run of a key records it.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        try:
            self.entries: dict[str, str] = json.loads(path.read_text())
        except FileNotFoundError:
            self.entries = {}

    def check(self, key: str, digest: str) -> None:
        recorded = self.entries.get(key)
        require(
            recorded in (None, digest),
            f"result digest differs from an earlier run of {key}",
        )
        if recorded is None:
            self.entries[key] = digest
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.entries, indent=1, sort_keys=True))
            os.replace(tmp, self.path)
