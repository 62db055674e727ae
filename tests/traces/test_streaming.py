"""Tests for the streaming trace builder and generator equivalence."""

import tracemalloc

import pytest

from repro.errors import TraceError
from repro.traces.cello import CelloTraceConfig, generate_cello_trace_columnar
from repro.traces.columnar import ColumnarTrace
from repro.traces.fingerprint import trace_fingerprint
from repro.traces.oltp import OLTPTraceConfig, generate_oltp_trace_columnar
from repro.traces.record import IORequest
from repro.traces.streaming import CHUNK_ROWS, TraceBuilder, build_columnar
from repro.traces.synthetic import (
    SyntheticTraceConfig,
    generate_synthetic_trace_columnar,
    iter_synthetic_rows,
)


class TestTraceBuilder:
    def test_appends_become_columns(self):
        builder = TraceBuilder()
        builder.append(0.5, 1, 100, 2, True)
        builder.append(1.5, 0, 7)
        assert len(builder) == 2
        trace = builder.build()
        assert isinstance(trace, ColumnarTrace)
        assert list(trace.times) == [0.5, 1.5]
        assert list(trace.disks) == [1, 0]
        assert list(trace.blocks) == [100, 7]
        assert list(trace.nblocks) == [2, 1]
        assert [bool(w) for w in trace.is_write] == [True, False]

    def test_empty_build(self):
        trace = TraceBuilder().build()
        assert len(trace) == 0

    def test_builder_resets_after_build(self):
        builder = TraceBuilder()
        builder.append(5.0, 0, 1)
        builder.build()
        assert len(builder) == 0
        builder.append(0.0, 0, 2)  # earlier time is fine after reset
        assert list(builder.build().blocks) == [2]

    def test_crosses_chunk_boundaries(self):
        rows = ((float(i), 0, i, 1, False) for i in range(CHUNK_ROWS + 17))
        trace = build_columnar(rows)
        assert len(trace) == CHUNK_ROWS + 17
        assert trace.blocks[0] == 0
        assert trace.blocks[-1] == CHUNK_ROWS + 16
        assert trace.times[-1] == float(CHUNK_ROWS + 16)

    def test_build_holds_the_chunks_plus_one_column(self):
        # build() releases each column's chunks once that column is
        # concatenated; copying every column before releasing any chunk
        # peaked at the chunks plus all five columns
        rows = (
            (float(i), i % 7, i, 1, False) for i in range(4 * CHUNK_ROWS + 5)
        )
        tracemalloc.start()
        try:
            builder = TraceBuilder().extend(rows)
            chunks, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            trace = builder.build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(trace) == 4 * CHUNK_ROWS + 5
        assert peak < chunks + trace.times.nbytes + (1 << 20)

    def test_rejects_time_regression(self):
        builder = TraceBuilder()
        builder.append(2.0, 0, 1)
        with pytest.raises(TraceError, match="not time-ordered at row 1"):
            builder.append(1.0, 0, 2)

    def test_rejects_negative_fields(self):
        builder = TraceBuilder()
        with pytest.raises(TraceError, match="bad record at row 0"):
            builder.append(0.0, -1, 5)
        with pytest.raises(TraceError, match="bad record"):
            builder.append(0.0, 0, 5, nblocks=0)

    @pytest.mark.parametrize("time", [float("nan"), float("inf")])
    def test_rejects_non_finite_time(self, time):
        builder = TraceBuilder()
        builder.append(1.0, 0, 1)
        with pytest.raises(TraceError, match="bad record at row 1"):
            builder.append(time, 0, 2)

    def test_round_trips_request_rows(self, tiny_trace):
        rows = (
            (r.time, r.disk, r.block, r.nblocks, r.is_write)
            for r in tiny_trace
        )
        trace = build_columnar(rows)
        assert trace.to_requests() == tiny_trace


class TestGeneratorEquivalence:
    """Each generator's output is pinned by fingerprint: a change to its
    RNG draw order, or to the streaming builder, moves the pin."""

    def test_oltp(self):
        trace = generate_oltp_trace_columnar(OLTPTraceConfig(duration_s=20.0))
        assert len(trace) == 220
        assert trace_fingerprint(trace) == (
            "53a1dc5ad23063f4c294c2654de298e9bc03d7af73d08afb23d9adf1cd6bb9a0"
        )

    def test_cello(self):
        trace = generate_cello_trace_columnar(CelloTraceConfig(duration_s=2.0))
        assert len(trace) == 336
        assert trace_fingerprint(trace) == (
            "b87713d411cbbd1622af09565c4b3ead00b463ee323f82f0e3b03684690c988c"
        )

    def test_synthetic(self):
        config = SyntheticTraceConfig(num_requests=2000)
        trace = generate_synthetic_trace_columnar(config)
        assert len(trace) == 2000
        assert trace_fingerprint(trace) == (
            "543aae75dd72a6a3688ab6860a846fb243e448218beb39c47f7770692277b9f3"
        )

    def test_columnar_requests_match_legacy(self):
        # The streamed columns hold exactly the rows the generation loop
        # yields, boxed the way a request list boxes them.
        config = SyntheticTraceConfig(num_requests=300)
        assert generate_synthetic_trace_columnar(config).to_requests() == [
            IORequest(time=t, disk=d, block=b, nblocks=n, is_write=w)
            for t, d, b, n, w in iter_synthetic_rows(config)
        ]


@pytest.mark.slow
class TestBoundedMemory:
    """Streaming generation must not materialize boxed request lists."""

    def test_streamed_generation_peak_is_bounded(self):
        config = SyntheticTraceConfig(num_requests=200_000)
        tracemalloc.start()
        try:
            trace = generate_synthetic_trace_columnar(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        columns_bytes = sum(
            getattr(col, "nbytes", len(col) * 8)
            for col in (
                trace.times,
                trace.disks,
                trace.blocks,
                trace.nblocks,
                trace.is_write,
            )
        )
        # The concatenate in build() may transiently double the columns;
        # a boxed list[IORequest] path would cost an order of magnitude
        # more than this allowance.
        assert peak < 2.5 * columns_bytes + (8 << 20)
