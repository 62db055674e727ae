"""Trace file persistence (CSV).

Format: one header line, then ``time,disk,block,nblocks,op`` rows with
``op`` in ``{R, W}``. Times are written with full ``repr`` precision so
a save → load round trip reproduces the exact floats — and therefore
the exact :func:`~repro.traces.fingerprint.trace_fingerprint`, which
the campaign result cache uses as its identity key. (An earlier format
quantized times to microseconds, which silently changed fingerprints
across a round trip and defeated that cache.)

:meth:`ColumnarTrace.from_csv` is the one parser; :func:`write_rows` is
the one writer, shared by :func:`save_trace` and the streaming importer
(:func:`repro.traces.ingest.import_to_csv`).
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable

from repro.traces.columnar import _CSV_HEADER, ColumnarTrace, iter_rows
from repro.traces.streaming import TraceRow


def write_rows(rows: Iterable[TraceRow], path: str | Path) -> int:
    """Write ``(time, disk, block, nblocks, is_write)`` rows as a trace
    CSV at ``path``, streaming; returns the row count."""
    count = 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for time, disk, block, nblocks, is_write in rows:
            writer.writerow(
                [
                    repr(float(time)),
                    disk,
                    block,
                    nblocks,
                    "W" if is_write else "R",
                ]
            )
            count += 1
    return count


def save_trace(trace: ColumnarTrace, path: str | Path) -> None:
    """Write a trace to ``path`` as CSV (round-trip exact).

    Raises:
        TraceError: If the trace is not time-ordered.
    """
    trace.validate()
    write_rows(iter_rows(trace.columns()), path)
