"""Columnar (struct-of-arrays) trace representation.

Every generated, imported, loaded or saved trace is a
:class:`ColumnarTrace`: the five request fields as five parallel numpy
columns — ``times``, ``disks``, ``blocks``, ``nblocks``, ``is_write``.
A million requests is five arrays, not a million frozen
:class:`~repro.traces.record.IORequest` instances that every simulation
pass reads one attribute at a time.

The simulation engine (:class:`repro.sim.engine.StorageSimulator`)
detects a :class:`ColumnarTrace` and drives its fast loops straight off
the columns, skipping :class:`~repro.traces.record.IORequest`
construction entirely. A :class:`ColumnarTrace` also quacks like a
sequence of requests (``len``, indexing, iteration, slicing), so
fingerprinting and statistics accept one; :meth:`ColumnarTrace.to_requests`
materializes the ``list[IORequest]`` that drives the per-object
``handle_request`` reference loop.

Columns can also be exported into a :mod:`multiprocessing.shared_memory`
segment (:meth:`ColumnarTrace.share`) so campaign workers attach
zero-copy instead of each receiving a pickled copy of the trace — see
:mod:`repro.campaign.executor`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import chain, starmap
from math import inf
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import TraceError
from repro.traces.record import IORequest

#: (field name, numpy dtype) for each column, in order.
_COLUMNS = (
    ("times", "<f8"),
    ("disks", "<i8"),
    ("blocks", "<i8"),
    ("nblocks", "<i8"),
    ("is_write", "|b1"),
)

_CSV_HEADER = ["time", "disk", "block", "nblocks", "op"]

#: Rows per chunk, wherever a trace is handled a chunk at a time:
#: :class:`~repro.traces.streaming.TraceBuilder` fills numpy chunks of
#: this many rows, and :func:`iter_chunks` boxes this many rows into
#: Python objects at once. Large enough that the per-chunk bookkeeping
#: vanishes, small enough that one boxed chunk (a few MiB) stays small
#: next to the run: boxing all 436,276 rows of the 12 h OLTP trace at
#: once doubles a PA-LRU run's tracemalloc peak (32 -> 64 MiB). Read
#: at call time, so a test can shrink it to make every boundary occur.
CHUNK_ROWS = 1 << 16


def iter_chunks(
    columns: Sequence[np.ndarray], ends: Iterable[int] | None = None
) -> Iterator[list[list]]:
    """Box equal-length numpy columns one chunk of rows at a time.

    Yields each chunk as one Python list per column, holding native
    ``float``/``int``/``bool`` scalars (as ``ndarray.tolist`` makes
    them). A chunk is released when the caller drops it, so at most one
    chunk is boxed at a time.

    Args:
        columns: Equal-length one-dimensional arrays.
        ends: Ascending row offsets at which chunks end, the last one
            the column length; defaults to every :data:`CHUNK_ROWS`
            rows.
    """
    n = len(columns[0])
    if ends is None:
        step = CHUNK_ROWS
        ends = range(step, n + step, step)
    lo = 0
    for hi in ends:
        yield [column[lo:hi].tolist() for column in columns]
        lo = hi


def iter_rows(columns: Sequence[np.ndarray]) -> Iterator[tuple]:
    """Zip equal-length numpy columns as native Python rows.

    The one row iterator over columns: rows are boxed one chunk at a
    time (:func:`iter_chunks`), so iterating a trace of any length
    holds one chunk of Python objects, not the whole trace. ``starmap``
    keeps no reference to a chunk, so ``chain`` releases each chunk
    (with its ``zip``) before the next one is boxed.
    """
    return chain.from_iterable(starmap(zip, iter_chunks(columns)))


@dataclass(frozen=True)
class SharedTraceDescriptor:
    """Picklable handle to a trace living in a shared-memory segment.

    Produced by :meth:`ColumnarTrace.share`; consumed by
    :meth:`ColumnarTrace.from_shared` in another process. The segment
    packs the five columns back to back at 8-byte-aligned offsets.
    """

    shm_name: str
    length: int
    #: (field, dtype, byte offset, byte length) per column.
    layout: tuple[tuple[str, str, int, int], ...]


class ColumnarTrace:
    """A trace as five parallel columns.

    Args:
        times / disks / blocks / nblocks / is_write: Equal-length
            columns, as numpy arrays (kept as they are when the dtype
            already matches) or plain sequences (converted).

    Use the classmethods for the common constructions:
    :meth:`from_requests`, :meth:`from_csv`, :meth:`from_shared`.
    """

    __slots__ = ("times", "disks", "blocks", "nblocks", "is_write", "_shm")

    def __init__(self, times, disks, blocks, nblocks, is_write) -> None:
        columns = (times, disks, blocks, nblocks, is_write)
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise TraceError(
                f"columns must have equal lengths, got {sorted(lengths)}"
            )
        for (name, dtype), value in zip(_COLUMNS, columns):
            setattr(self, name, np.asarray(value, dtype=dtype))
        self._shm = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_requests(cls, trace: Iterable[IORequest]) -> "ColumnarTrace":
        """Convert a sequence of :class:`IORequest` (already validated)."""
        times: list[float] = []
        disks: list[int] = []
        blocks: list[int] = []
        nblocks: list[int] = []
        is_write: list[bool] = []
        for req in trace:
            times.append(req.time)
            disks.append(req.disk)
            blocks.append(req.block)
            nblocks.append(req.nblocks)
            is_write.append(req.is_write)
        return cls(times, disks, blocks, nblocks, is_write)

    @classmethod
    def from_csv(cls, path: str | Path) -> "ColumnarTrace":
        """Load a trace CSV (``repro generate`` format) into columns.

        The one trace-CSV parser. Builds the columns directly — no
        intermediate :class:`IORequest` objects — and rejects a bad
        header, a row without five fields, an op other than ``R``/``W``,
        a time that is not finite and ``>= 0``, a negative disk/block,
        ``nblocks < 1`` and out-of-order times, each with its
        ``path:line``.
        """
        times: list[float] = []
        disks: list[int] = []
        blocks: list[int] = []
        nblocks: list[int] = []
        is_write: list[bool] = []
        previous = -1.0
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            cleaned = None
            if header is not None:
                # Tolerate a UTF-8 BOM / stray whitespace: files that
                # pass through Windows editors or spreadsheet exports
                # grow both, and they are cosmetic.
                cleaned = [field.lstrip("\ufeff").strip() for field in header]
            if cleaned != _CSV_HEADER:
                raise TraceError(f"{path}: bad header {header!r}")
            for line_no, row in enumerate(reader, start=2):
                if len(row) != 5:
                    raise TraceError(f"{path}:{line_no}: expected 5 fields")
                try:
                    time = float(row[0])
                    disk = int(row[1])
                    block = int(row[2])
                    count = int(row[3])
                    op = row[4].strip().upper()
                    if op not in ("R", "W"):
                        raise ValueError(f"bad op {row[4]!r}")
                    if (
                        not 0.0 <= time < inf
                        or disk < 0 or block < 0 or count < 1
                    ):
                        raise ValueError(
                            f"bad record ({time}, {disk}, {block}, {count})"
                        )
                except ValueError as exc:
                    raise TraceError(f"{path}:{line_no}: {exc}") from exc
                if time < previous:
                    raise TraceError(
                        f"{path}:{line_no}: trace not time-ordered "
                        f"({time} < {previous})"
                    )
                previous = time
                times.append(time)
                disks.append(disk)
                blocks.append(block)
                nblocks.append(count)
                is_write.append(op == "W")
        return cls(times, disks, blocks, nblocks, is_write)

    # -- sequence protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ColumnarTrace(
                self.times[index],
                self.disks[index],
                self.blocks[index],
                self.nblocks[index],
                self.is_write[index],
            )
        return IORequest(
            time=float(self.times[index]),
            disk=int(self.disks[index]),
            block=int(self.blocks[index]),
            nblocks=int(self.nblocks[index]),
            is_write=bool(self.is_write[index]),
        )

    def __iter__(self) -> Iterator[IORequest]:
        return self.iter_requests()

    def iter_requests(self) -> Iterator[IORequest]:
        """Yield each record as an :class:`IORequest`."""
        for time, disk, block, count, write in iter_rows(self.columns()):
            yield IORequest(
                time=time, disk=disk, block=block,
                nblocks=count, is_write=write,
            )

    def columns(self) -> tuple[np.ndarray, ...]:
        """The five columns, in ``_COLUMNS`` order (for
        :func:`iter_rows` / :func:`iter_chunks`)."""
        return (
            self.times, self.disks, self.blocks, self.nblocks, self.is_write
        )

    def block_accesses(self) -> tuple["ColumnarTrace", np.ndarray | None]:
        """The per-block access stream, expanded with numpy.

        A request of ``nblocks`` blocks becomes ``nblocks`` single-block
        rows at its time, in block order — the accesses
        :meth:`IORequest.block_keys` gives the ``handle_request``
        reference, and the exact ``on_access`` stream offline policies
        are prepared with.

        Returns:
            ``(accesses, starts)``: the access trace and each request's
            first row in it (the ``np.maximum.reduceat`` indices that
            fold per-access responses back into per-request ones), or
            ``(self, None)`` when every request is single-block already.
        """
        counts = self.nblocks
        if bool((counts == 1).all()):
            return self, None
        starts = np.zeros(len(counts), dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        offsets = np.arange(int(counts.sum()), dtype=np.int64)
        offsets -= np.repeat(starts, counts)
        accesses = ColumnarTrace(
            np.repeat(self.times, counts),
            np.repeat(self.disks, counts),
            np.repeat(self.blocks, counts) + offsets,
            # all ones: a zero-stride view, not a column in memory
            np.broadcast_to(np.int64(1), len(offsets)),
            np.repeat(self.is_write, counts),
        )
        return accesses, starts

    def num_disks(self) -> int:
        """The smallest array the trace fits: its highest disk id plus
        one, or 1 for an empty trace."""
        return int(self.disks.max()) + 1 if len(self.disks) else 1

    def as_lists(self) -> tuple[list, list, list, list, list]:
        """The five columns as plain Python lists (fastest to iterate).

        Scalars come back as native ``float``/``int``/``bool`` — numpy
        scalar types never leak into the simulation.
        """
        return tuple(column.tolist() for column in self.columns())

    def to_requests(self) -> list[IORequest]:
        """Materialize the object-per-request form.

        A ``list[IORequest]`` is how a caller asks the engine for the
        per-object ``handle_request`` reference loop instead of the
        columnar fast loops.
        """
        return list(self.iter_requests())

    def validate(self) -> None:
        """Check time-ordering; raises :class:`TraceError` on violations.

        Vectorized; mirrors :func:`repro.traces.record.validate_trace`.
        """
        index = self.first_disorder()
        if index is not None:
            raise TraceError(
                f"trace not time-ordered at index {index}: "
                f"{float(self.times[index])} < {float(self.times[index - 1])}"
            )

    def first_disorder(self) -> int | None:
        """Index of the first out-of-order record, or ``None``."""
        times = self.times
        bad = np.flatnonzero(times[1:] < times[:-1])
        return int(bad[0]) + 1 if bad.size else None

    # -- shared memory ----------------------------------------------------

    def share(self):
        """Copy the columns into a shared-memory segment.

        Returns:
            ``(descriptor, shm)`` — a picklable
            :class:`SharedTraceDescriptor` for other processes and the
            owning :class:`multiprocessing.shared_memory.SharedMemory`.
            The caller owns the segment: keep ``shm`` alive while
            workers attach, then ``shm.close(); shm.unlink()``.
        """
        from multiprocessing import shared_memory

        layout = []
        offset = 0
        buffers = []
        for name, dtype in _COLUMNS:
            raw = getattr(self, name).tobytes()
            layout.append((name, dtype, offset, len(raw)))
            buffers.append(raw)
            offset += (len(raw) + 7) & ~7  # keep every column 8-aligned
        shm = shared_memory.SharedMemory(create=True, size=max(1, offset))
        for (name, dtype, start, nbytes), raw in zip(layout, buffers):
            shm.buf[start:start + nbytes] = raw
        descriptor = SharedTraceDescriptor(
            shm_name=shm.name, length=len(self), layout=tuple(layout)
        )
        return descriptor, shm

    @classmethod
    def from_shared(cls, descriptor: SharedTraceDescriptor) -> "ColumnarTrace":
        """Attach to a segment created by :meth:`share` (zero-copy).

        The columns are views straight onto the shared buffer. The
        returned trace holds the attachment open — call :meth:`close`
        when done (the segment's creator does the ``unlink``).
        """
        from multiprocessing import shared_memory

        # Attaching registers the segment with the resource tracker on
        # POSIX (CPython < 3.13, no ``track=False`` yet), which would
        # let an attacher's tracker unlink a segment it does not own —
        # and processes sharing one tracker would double-unregister.
        # The creator is the sole owner, so suppress the registration
        # for the duration of the attach.
        try:  # pragma: no cover - depends on interpreter internals
            from multiprocessing import resource_tracker

            original_register = resource_tracker.register

            def register(name, rtype):  # noqa: ANN001
                if rtype == "shared_memory":
                    return
                original_register(name, rtype)

            resource_tracker.register = register
        except Exception:
            resource_tracker = None
            original_register = None
        try:
            shm = shared_memory.SharedMemory(name=descriptor.shm_name)
        finally:
            if original_register is not None:
                resource_tracker.register = original_register
        columns = {
            name: np.frombuffer(
                shm.buf, dtype=dtype, count=descriptor.length, offset=offset
            )
            for name, dtype, offset, _ in descriptor.layout
        }
        trace = cls(**columns)
        trace._shm = shm
        return trace

    def close(self) -> None:
        """Release a shared-memory attachment (no-op otherwise)."""
        if self._shm is not None:
            # Views must drop their buffer references before close().
            for name, _ in _COLUMNS:
                setattr(self, name, getattr(self, name).copy())
            self._shm.close()
            self._shm = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ColumnarTrace(n={len(self)})"
