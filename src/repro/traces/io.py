"""Trace file persistence (CSV).

Format: one header line, then ``time,disk,block,nblocks,op`` rows with
``op`` in ``{R, W}``. Times are written with full ``repr`` precision so
a save → load round trip reproduces the exact floats — and therefore
the exact :func:`~repro.traces.fingerprint.trace_fingerprint`, which
the campaign result cache uses as its identity key. (An earlier format
quantized times to microseconds, which silently changed fingerprints
across a round trip and defeated that cache.)
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Sequence

from repro.traces.columnar import _CSV_HEADER, ColumnarTrace
from repro.traces.record import IORequest, validate_trace


def save_trace(trace: Sequence[IORequest], path: str | Path) -> None:
    """Write a trace to ``path`` as CSV (round-trip exact)."""
    validate_trace(trace)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for req in trace:
            writer.writerow(
                [
                    repr(float(req.time)),
                    req.disk,
                    req.block,
                    req.nblocks,
                    "W" if req.is_write else "R",
                ]
            )


def load_trace(path: str | Path) -> list[IORequest]:
    """Read a trace written by :func:`save_trace` as request objects.

    Parsing and validation are :meth:`ColumnarTrace.from_csv`'s; load
    the columns directly when no caller needs the objects.

    Raises:
        TraceError: On malformed headers, rows, or time ordering.
    """
    return ColumnarTrace.from_csv(path).to_requests()
