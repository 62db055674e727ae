"""Real-trace ingestion: blktrace-text and iostat importers.

The simulator's native format is the ``repro generate`` CSV, but real
block traces arrive as ``blkparse`` text dumps or as ``iostat -d``
interval reports. This module parses both line-by-line — no file-sized
intermediate lists — normalizes them, and streams the rows through
:mod:`repro.traces.streaming` into a
:class:`~repro.traces.columnar.ColumnarTrace` (or straight to a native
CSV via :func:`import_to_csv`, which holds only one interval of rows at
a time).

Normalization rules (DESIGN §14):

* **time rebasing** — the first kept event becomes ``t = 0``; input
  timestamps must be finite, ``>= 0`` and non-decreasing (the importer
  reports the offending line rather than silently reordering);
* **disk-id compaction** — ``major,minor`` pairs (blktrace) or device
  names (iostat) are mapped to dense disk ids in first-seen order;
* **sector→block remapping** — blktrace sector offsets (512-byte
  units) are converted to simulator blocks of ``block_size`` bytes.

Malformed input raises :class:`~repro.errors.TraceError` carrying
``path:line_no`` so the broken record can be found with a text editor.

blktrace text records look like::

    8,0 3 1 0.000000000 697 Q W 223490 + 8 [kjournald]

(``major,minor cpu seq time pid action rwbs sector + nsectors [proc]``).
Only *queue* events (action ``Q``) are imported — they mark request
arrival at the block layer, which is what the cache simulator consumes;
other actions describe the same request's later lifecycle.

``iostat -d`` reports carry no per-request detail, so the importer
*synthesizes* a deterministic request stream per device interval:
``tps × interval`` requests, evenly spaced, split into reads and writes
in proportion to the transferred kilobytes, each covering the device's
share of blocks at a sequential per-device cursor. The result preserves
the rate and read/write envelope of the real system — enough for the
energy model, which cares about arrival gaps, not addresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from pathlib import Path
from typing import Iterator

from repro.errors import ConfigurationError, TraceError
from repro.traces.columnar import ColumnarTrace
from repro.traces.io import write_rows
from repro.traces.streaming import TraceRow, build_columnar
from repro.units import DEFAULT_BLOCK_SIZE, KIB, SECTOR_SIZE

#: blktrace ``rwbs`` flags that describe non-data requests we skip
#: (flush/barrier, discard, none) rather than reject.
_RWBS_SKIP = frozenset("FDN")


class ImportStats:
    """Mutable line counters threaded through the streaming parsers."""

    __slots__ = (
        "lines",
        "requests",
        "skipped",
        "disks",
        "cursors",
        "last_time",
    )

    def __init__(self) -> None:
        self.lines = 0
        self.requests = 0
        self.skipped = 0
        self.disks: dict[str, int] = {}
        self.cursors: dict[str, int] = {}
        self.last_time = 0.0

    def disk_id(self, device: str) -> int:
        """Dense disk id for ``device``, minted in first-seen order."""
        disk = self.disks.get(device)
        if disk is None:
            disk = len(self.disks)
            self.disks[device] = disk
        return disk


@dataclass(frozen=True)
class ImportSummary:
    """What an import produced — printed by ``repro trace import``."""

    format: str
    lines: int
    requests: int
    skipped: int
    num_disks: int
    duration_s: float


# --------------------------------------------------------------------------
# blktrace text
# --------------------------------------------------------------------------


def iter_blktrace_rows(
    path: str | Path,
    block_size: int = DEFAULT_BLOCK_SIZE,
    stats: ImportStats | None = None,
) -> Iterator[TraceRow]:
    """Stream normalized rows from a ``blkparse`` text dump."""
    if stats is None:
        stats = ImportStats()
    base_time: float | None = None
    previous = -1.0
    with open(path, encoding="utf-8", errors="replace") as fh:
        for line_no, line in enumerate(fh, start=1):
            stats.lines = line_no
            fields = line.split()
            if not fields:
                stats.skipped += 1
                continue
            if line.startswith(("CPU", "Total", "Throughput", "Events")):
                # blkparse appends a summary table; the events are over.
                break
            if len(fields) < 7:
                raise TraceError(
                    f"{path}:{line_no}: truncated blktrace record"
                )
            action = fields[5]
            if action != "Q":
                stats.skipped += 1
                continue
            rwbs = fields[6]
            if "W" in rwbs:
                is_write = True
            elif "R" in rwbs:
                is_write = False
            elif set(rwbs) <= _RWBS_SKIP:
                stats.skipped += 1
                continue
            else:
                raise TraceError(f"{path}:{line_no}: unknown rwbs {rwbs!r}")
            if len(fields) < 10 or fields[8] != "+":
                raise TraceError(
                    f"{path}:{line_no}: truncated blktrace record"
                )
            try:
                time = float(fields[3])
            except ValueError:
                raise TraceError(
                    f"{path}:{line_no}: bad timestamp {fields[3]!r}"
                ) from None
            if not 0.0 <= time < inf:
                raise TraceError(
                    f"{path}:{line_no}: timestamp {fields[3]!r} is not "
                    "finite and >= 0"
                )
            try:
                sector = int(fields[7])
                nsectors = int(fields[9])
            except ValueError as exc:
                raise TraceError(f"{path}:{line_no}: {exc}") from exc
            if time < previous:
                raise TraceError(
                    f"{path}:{line_no}: timestamps go backwards"
                )
            previous = time
            if base_time is None:
                base_time = time
            disk = stats.disk_id(fields[0])
            start = sector * SECTOR_SIZE
            end = start + max(1, nsectors) * SECTOR_SIZE
            block = start // block_size
            nblocks = (end - 1) // block_size - block + 1
            stats.requests += 1
            stats.last_time = time - base_time
            yield (time - base_time, disk, block, nblocks, is_write)


# --------------------------------------------------------------------------
# iostat -d interval reports
# --------------------------------------------------------------------------


def _iostat_columns(header: list[str], path: str | Path, line_no: int):
    """Resolve the per-device rate columns of a ``Device`` header.

    Returns ``(reads_col, writes_col, rkb_col, wkb_col)`` as indices
    into the numeric fields (the device name is field 0, so numeric
    field ``i`` is token ``i + 1``). The classic ``-d`` layout exposes
    only ``tps``; the extended ``-x`` layout splits reads and writes.
    """
    names = header[1:]
    index = {name: i for i, name in enumerate(names)}
    if "r/s" in index and "w/s" in index:
        return (
            index["r/s"],
            index["w/s"],
            index.get("rkB/s"),
            index.get("wkB/s"),
        )
    if "tps" in index:
        return (
            index["tps"],
            None,
            index.get("kB_read/s"),
            index.get("kB_wrtn/s"),
        )
    raise TraceError(f"{path}:{line_no}: unsupported iostat header")


def _interval_rows(
    rows: list[tuple[str, list[float]]],
    columns,
    start: float,
    interval_s: float,
    block_size: int,
    stats: ImportStats,
) -> list[TraceRow]:
    """Synthesize one interval's request stream from device rates."""
    reads_col, writes_col, rkb_col, wkb_col = columns
    out: list[TraceRow] = []
    for device, values in rows:
        if writes_col is None:
            total = values[reads_col] * interval_s
            rkb = values[rkb_col] * interval_s if rkb_col is not None else 0.0
            wkb = values[wkb_col] * interval_s if wkb_col is not None else 0.0
            transferred = rkb + wkb
            writes = (
                int(round(total * wkb / transferred)) if transferred else 0
            )
            reads = int(round(total)) - writes
        else:
            reads = int(round(values[reads_col] * interval_s))
            writes = int(round(values[writes_col] * interval_s))
            rkb = values[rkb_col] * interval_s if rkb_col is not None else 0.0
            wkb = values[wkb_col] * interval_s if wkb_col is not None else 0.0
        count = reads + writes
        if count == 0:
            continue
        disk = stats.disk_id(device)
        read_blocks = max(reads, int(rkb * KIB) // block_size)
        write_blocks = max(writes, int(wkb * KIB) // block_size)
        cursor = stats.cursors.get(device, 0)
        gap = interval_s / (count + 1)
        for i in range(count):
            is_write = i >= reads
            if is_write:
                nblocks = max(1, write_blocks // max(1, writes))
            else:
                nblocks = max(1, read_blocks // max(1, reads))
            out.append(
                (start + (i + 1) * gap, disk, cursor, nblocks, is_write)
            )
            cursor += nblocks
        stats.cursors[device] = cursor
    out.sort(key=lambda row: (row[0], row[1]))
    stats.requests += len(out)
    if out:
        stats.last_time = out[-1][0]
    return out


def iter_iostat_rows(
    path: str | Path,
    block_size: int = DEFAULT_BLOCK_SIZE,
    interval_s: float = 1.0,
    stats: ImportStats | None = None,
) -> Iterator[TraceRow]:
    """Stream synthesized rows from an ``iostat -d`` report.

    The first ``Device`` block reports since-boot averages; it only
    registers the devices. Each subsequent block is one measurement
    interval of ``interval_s`` seconds.
    """
    if interval_s <= 0:
        raise ConfigurationError("interval_s must be > 0")
    if stats is None:
        stats = ImportStats()
    columns = None
    pending: list[tuple[str, list[float]]] = []
    sample = 0  # completed Device blocks
    in_block = False
    skip_next = False
    with open(path, encoding="utf-8", errors="replace") as fh:
        for line_no, line in enumerate(fh, start=1):
            stats.lines = line_no
            fields = line.split()
            if skip_next:
                # the data line under an avg-cpu header
                skip_next = False
                stats.skipped += 1
                continue
            if not fields:
                if in_block:
                    if sample > 0:
                        yield from _interval_rows(
                            pending,
                            columns,
                            (sample - 1) * interval_s,
                            interval_s,
                            block_size,
                            stats,
                        )
                    pending = []
                    sample += 1
                    in_block = False
                continue
            if fields[0] == "Device" or fields[0] == "Device:":
                columns = _iostat_columns(fields, path, line_no)
                in_block = True
                continue
            if fields[0].startswith("avg-cpu"):
                skip_next = True
                stats.skipped += 1
                continue
            if not in_block:
                # the "Linux ... (host)" banner or a timestamp line
                stats.skipped += 1
                continue
            try:
                values = [float(token) for token in fields[1:]]
            except ValueError as exc:
                raise TraceError(f"{path}:{line_no}: {exc}") from exc
            if len(values) < 1:
                raise TraceError(f"{path}:{line_no}: truncated iostat row")
            for token, value in zip(fields[1:], values):
                if not 0.0 <= value < inf:
                    raise TraceError(
                        f"{path}:{line_no}: rate {token!r} is not finite "
                        "and >= 0"
                    )
            pending.append((fields[0], values))
    if in_block and sample > 0:
        yield from _interval_rows(
            pending,
            columns,
            (sample - 1) * interval_s,
            interval_s,
            block_size,
            stats,
        )


# --------------------------------------------------------------------------
# front door
# --------------------------------------------------------------------------

#: format name -> streaming row parser.
IMPORT_FORMATS = {
    "blktrace": iter_blktrace_rows,
    "iostat": iter_iostat_rows,
}


def sniff_format(path: str | Path) -> str:
    """Guess the import format from the first few lines of ``path``."""
    with open(path, encoding="utf-8", errors="replace") as fh:
        for line in fh:
            fields = line.split()
            if not fields:
                continue
            if fields[0] == "Linux" or fields[0].startswith("Device"):
                return "iostat"
            first = fields[0].split(",")
            if len(first) == 2 and all(p.isdigit() for p in first):
                return "blktrace"
            break
    raise TraceError(f"{path}: cannot determine trace format")


def _make_rows(
    path: str | Path,
    fmt: str | None,
    block_size: int,
    interval_s: float,
    stats: ImportStats,
) -> tuple[str, Iterator[TraceRow]]:
    resolved = fmt or sniff_format(path)
    if resolved == "blktrace":
        return resolved, iter_blktrace_rows(path, block_size, stats)
    if resolved == "iostat":
        return resolved, iter_iostat_rows(path, block_size, interval_s, stats)
    raise ConfigurationError(
        f"unknown trace format {resolved!r}; "
        f"choose from {sorted(IMPORT_FORMATS)}"
    )


def import_trace(
    path: str | Path,
    fmt: str | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    interval_s: float = 1.0,
) -> tuple[ColumnarTrace, ImportSummary]:
    """Import a real trace into a :class:`ColumnarTrace`.

    ``fmt`` is one of :data:`IMPORT_FORMATS` or ``None`` to sniff.
    """
    stats = ImportStats()
    resolved, rows = _make_rows(path, fmt, block_size, interval_s, stats)
    trace = build_columnar(rows)
    return trace, _summary(resolved, stats, trace_len=len(trace))


def import_to_csv(
    src: str | Path,
    dst: str | Path,
    fmt: str | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    interval_s: float = 1.0,
) -> ImportSummary:
    """Import ``src`` straight to a native trace CSV at ``dst``.

    Rows stream from the parser to the CSV writer one at a time, so
    peak memory is independent of the trace length.
    """
    stats = ImportStats()
    resolved, rows = _make_rows(src, fmt, block_size, interval_s, stats)
    count = write_rows(rows, dst)
    return _summary(resolved, stats, trace_len=count)


def _summary(fmt: str, stats: ImportStats, trace_len: int) -> ImportSummary:
    return ImportSummary(
        format=fmt,
        lines=stats.lines,
        requests=trace_len,
        skipped=stats.skipped,
        num_disks=len(stats.disks),
        duration_s=stats.last_time,
    )
