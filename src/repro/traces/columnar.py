"""Columnar (struct-of-arrays) trace representation.

The object-per-request trace (``list[IORequest]``) is convenient but
expensive at scale: a million requests is a million frozen dataclass
instances, and every simulation pass pays an attribute lookup per field
per request. :class:`ColumnarTrace` stores the same five fields as five
parallel columns — ``times``, ``disks``, ``blocks``, ``nblocks``,
``is_write`` — backed by ``numpy`` arrays when numpy is importable and
by :mod:`array` arrays otherwise.

The simulation engine (:class:`repro.sim.engine.StorageSimulator`)
detects a :class:`ColumnarTrace` and drives its hot loop straight off
the columns, skipping :class:`~repro.traces.record.IORequest`
construction entirely. Everything else keeps working unchanged: a
:class:`ColumnarTrace` quacks like a sequence of requests
(``len``, indexing, iteration, slicing), so fingerprinting, statistics,
and the legacy engine path all accept one.

Columns can also be exported into a :mod:`multiprocessing.shared_memory`
segment (:meth:`ColumnarTrace.share`) so campaign workers attach
zero-copy instead of each receiving a pickled copy of the trace — see
:mod:`repro.campaign.executor`.
"""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.errors import TraceError
from repro.traces.record import IORequest

try:  # numpy is the preferred backend, but never a hard requirement
    import numpy as _np
except ImportError:  # pragma: no cover - the image bakes numpy in
    _np = None

#: (field name, numpy dtype, array typecode) for each column, in order.
_COLUMNS = (
    ("times", "<f8", "d"),
    ("disks", "<i8", "q"),
    ("blocks", "<i8", "q"),
    ("nblocks", "<i8", "q"),
    ("is_write", "|b1", "b"),
)

_CSV_HEADER = ["time", "disk", "block", "nblocks", "op"]


@dataclass(frozen=True)
class SharedTraceDescriptor:
    """Picklable handle to a trace living in a shared-memory segment.

    Produced by :meth:`ColumnarTrace.share`; consumed by
    :meth:`ColumnarTrace.from_shared` in another process. The segment
    packs the five columns back to back at 8-byte-aligned offsets.
    """

    shm_name: str
    length: int
    #: (field, dtype/typecode, byte offset, byte length) per column.
    layout: tuple[tuple[str, str, int, int], ...]


class ColumnarTrace:
    """A trace as five parallel columns.

    Args:
        times / disks / blocks / nblocks / is_write: Equal-length
            columns. Accepted as numpy arrays, :mod:`array` arrays, or
            plain sequences (converted to the active backend).

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
        for (name, dtype, typecode), value in zip(_COLUMNS, columns):
            setattr(self, name, _as_column(value, dtype, typecode))
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

        The one trace-CSV parser (:func:`repro.traces.io.load_trace`
        wraps it). Builds the columns directly — no intermediate
        :class:`IORequest` objects — and rejects a bad header, a row
        without five fields, an op other than ``R``/``W``, a negative
        time/disk/block, ``nblocks < 1`` and out-of-order times, each
        with its ``path:line``.
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
                    if time < 0 or disk < 0 or block < 0 or count < 1:
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
        """Yield each record as an :class:`IORequest` (adapter path)."""
        for time, disk, block, count, write in zip(*self.as_lists()):
            yield IORequest(
                time=time, disk=disk, block=block,
                nblocks=count, is_write=write,
            )

    def iter_accesses(self) -> Iterator[tuple[float, tuple[int, int]]]:
        """Stream the per-block ``(time, key)`` access sequence.

        This is the exact ``on_access`` stream the cache will issue —
        what offline policies are prepared with — produced without
        materializing request objects or the flattened list.
        """
        for time, disk, block, count, _ in zip(*self.as_lists()):
            if count == 1:
                yield (time, (disk, block))
            else:
                for i in range(count):
                    yield (time, (disk, block + i))

    def as_lists(self) -> tuple[list, list, list, list, list]:
        """The five columns as plain Python lists (fastest to iterate).

        Scalars come back as native ``float``/``int``/``bool`` — numpy
        scalar types never leak into the simulation.
        """
        return (
            _to_list(self.times, float),
            _to_list(self.disks, int),
            _to_list(self.blocks, int),
            _to_list(self.nblocks, int),
            _to_list(self.is_write, bool),
        )

    def to_requests(self) -> list[IORequest]:
        """Materialize the legacy object-per-request representation."""
        return list(self.iter_requests())

    def validate(self) -> None:
        """Check time-ordering; raises :class:`TraceError` on violations.

        Vectorized under numpy; mirrors
        :func:`repro.traces.record.validate_trace`.
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
        if len(times) < 2:
            return None
        if _np is not None and isinstance(times, _np.ndarray):
            bad = _np.flatnonzero(times[1:] < times[:-1])
            return int(bad[0]) + 1 if bad.size else None
        previous = times[0]
        for i in range(1, len(times)):
            if times[i] < previous:
                return i
            previous = times[i]
        return None

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
        for name, dtype, typecode in _COLUMNS:
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

        Under numpy the columns are views straight onto the shared
        buffer; the fallback backend copies into local arrays. The
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
        columns = {}
        copy = _np is None
        for name, dtype, offset, nbytes in descriptor.layout:
            if _np is not None:
                count = descriptor.length
                columns[name] = _np.frombuffer(
                    shm.buf, dtype=dtype, count=count, offset=offset
                )
            else:
                typecode = {d: t for _, d, t in _COLUMNS}[dtype]
                local = array(typecode)
                local.frombytes(bytes(shm.buf[offset:offset + nbytes]))
                columns[name] = local
        trace = cls(**columns)
        if copy:
            shm.close()
        else:
            trace._shm = shm
        return trace

    def close(self) -> None:
        """Release a shared-memory attachment (no-op otherwise)."""
        if self._shm is not None:
            # Views must drop their buffer references before close().
            for name, _, _ in _COLUMNS:
                setattr(self, name, getattr(self, name).copy())
            self._shm.close()
            self._shm = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        backend = "numpy" if (
            _np is not None and isinstance(self.times, _np.ndarray)
        ) else "array"
        return f"ColumnarTrace(n={len(self)}, backend={backend})"


def _as_column(value, dtype: str, typecode: str):
    """Coerce ``value`` into the active backend's column type."""
    if _np is not None:
        if isinstance(value, _np.ndarray) and value.dtype == _np.dtype(dtype):
            return value
        return _np.asarray(value, dtype=dtype)
    if isinstance(value, array) and value.typecode == typecode:
        return value
    if typecode == "b":
        return array(typecode, [1 if v else 0 for v in value])
    return array(typecode, value)


def _to_list(column, cast) -> list:
    if _np is not None and isinstance(column, _np.ndarray):
        return column.tolist()  # native Python scalars, C-speed
    if cast is bool:
        return [bool(v) for v in column]
    return list(column)


def as_columnar(trace: Sequence[IORequest] | ColumnarTrace) -> ColumnarTrace:
    """Coerce any trace into columnar form (no-op if already columnar)."""
    if isinstance(trace, ColumnarTrace):
        return trace
    return ColumnarTrace.from_requests(trace)
