"""Streaming construction of columnar traces (chunked appends).

Every generator and importer in :mod:`repro.traces` ultimately produces
a :class:`~repro.traces.columnar.ColumnarTrace`. Building one through a
``list[IORequest]`` costs an object, five boxed fields, and a list slot
per request — at 10M requests that is gigabytes of transient heap for a
trace whose columnar form is ~330 MB. :class:`TraceBuilder` removes the
boxed intermediate: rows are appended straight into fixed-size numpy
column chunks and concatenated once at :meth:`TraceBuilder.build`.

The streaming generator protocol (DESIGN §14) is deliberately tiny: a
workload family is a function yielding ``(time, disk, block, nblocks,
is_write)`` tuples in non-decreasing time order, and
:func:`build_columnar` turns any such stream into a trace. Peak memory
is the final columns plus one in-flight chunk — no per-request Python
objects survive past the yield.
"""

from __future__ import annotations

from math import inf
from typing import Iterable, Tuple

import numpy as np

from repro.errors import TraceError
from repro.traces.columnar import CHUNK_ROWS, ColumnarTrace

#: One streamed trace record: ``(time, disk, block, nblocks, is_write)``.
TraceRow = Tuple[float, int, int, int, bool]

#: Column dtypes in attribute order — must stay aligned with
#: ``repro.traces.columnar._COLUMNS``.
_DTYPES = ("<f8", "<i8", "<i8", "<i8", "|b1")


class TraceBuilder:
    """Accumulate trace rows into column chunks; finalize with :meth:`build`.

    Appends validate the trace invariants as they stream — a finite,
    non-negative time, non-negative fields and non-decreasing times — so
    a malformed source fails at the offending row, not after an
    expensive full pass.
    """

    __slots__ = ("_parts", "_current", "_fill", "_count", "_last_time")

    def __init__(self) -> None:
        # full chunks, kept per column (oldest first) so build() can
        # release one column's chunks while the others wait
        self._parts: tuple[list[np.ndarray], ...] = tuple(
            [] for _ in _DTYPES
        )
        self._current = None  # in-flight chunk, one array per column
        self._fill = 0
        self._count = 0
        self._last_time = 0.0

    def __len__(self) -> int:
        return self._count

    def append(
        self,
        time: float,
        disk: int,
        block: int,
        nblocks: int = 1,
        is_write: bool = False,
    ) -> None:
        """Append one record (validated, O(1) amortized)."""
        if time < self._last_time:
            raise TraceError(
                f"trace not time-ordered at row {self._count}: "
                f"{time} < {self._last_time}"
            )
        if not 0.0 <= time < inf or disk < 0 or block < 0 or nblocks < 1:
            raise TraceError(
                f"bad record at row {self._count}: "
                f"({time}, {disk}, {block}, {nblocks})"
            )
        self._last_time = time
        if self._current is None:
            self._current = tuple(
                np.empty(CHUNK_ROWS, dtype=dtype) for dtype in _DTYPES
            )
            self._fill = 0
        fill = self._fill
        current = self._current
        current[0][fill] = time
        current[1][fill] = disk
        current[2][fill] = block
        current[3][fill] = nblocks
        current[4][fill] = is_write
        self._fill = fill + 1
        self._count += 1
        if self._fill == CHUNK_ROWS:
            for parts, column in zip(self._parts, current):
                parts.append(column)
            self._current = None

    def extend(self, rows: Iterable[TraceRow]) -> "TraceBuilder":
        """Append a stream of ``(time, disk, block, nblocks, is_write)``."""
        append = self.append
        for time, disk, block, nblocks, is_write in rows:
            append(time, disk, block, nblocks, is_write)
        return self

    def build(self) -> ColumnarTrace:
        """Concatenate the chunks into a :class:`ColumnarTrace`.

        The builder is drained one column at a time: a column's chunks
        are released as soon as that column is concatenated, so peak
        memory during the copy is the chunks plus one finished column,
        about 1.25x the trace rather than the 2x of holding every chunk
        until every column is built.
        """
        parts = self._parts
        current = self._current
        fill = self._fill
        self.__init__()
        columns = []
        for index, dtype in enumerate(_DTYPES):
            column_parts = parts[index]
            if current is not None:
                column_parts.append(current[index][:fill])
            columns.append(
                np.concatenate(column_parts)
                if column_parts
                else np.empty(0, dtype=dtype)
            )
            column_parts.clear()
        return ColumnarTrace(*columns)


def build_columnar(rows: Iterable[TraceRow]) -> ColumnarTrace:
    """Stream ``rows`` through a :class:`TraceBuilder` into a trace."""
    return TraceBuilder().extend(rows).build()
