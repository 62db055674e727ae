"""Tests for the columnar (struct-of-arrays) trace representation."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.traces import columnar
from repro.traces.columnar import ColumnarTrace, iter_chunks, iter_rows
from repro.traces.fingerprint import trace_fingerprint
from repro.traces.io import save_trace
from repro.traces.record import IORequest
from repro.traces.synthetic import (
    SyntheticTraceConfig,
    generate_synthetic_trace_columnar,
)


def _requests():
    return [
        IORequest(time=0.0, disk=0, block=10, nblocks=1, is_write=False),
        IORequest(time=0.5, disk=1, block=20, nblocks=4, is_write=True),
        IORequest(time=0.5, disk=0, block=11, nblocks=1, is_write=False),
        IORequest(time=2.25, disk=2, block=0, nblocks=2, is_write=True),
    ]


class TestRoundTrip:
    def test_from_requests_roundtrip(self):
        requests = _requests()
        trace = ColumnarTrace.from_requests(requests)
        assert len(trace) == len(requests)
        assert trace.to_requests() == requests
        assert list(trace) == requests

    def test_getitem_returns_native_request(self):
        trace = ColumnarTrace.from_requests(_requests())
        req = trace[1]
        assert req == _requests()[1]
        assert type(req.time) is float
        assert type(req.disk) is int
        assert type(req.is_write) is bool

    def test_negative_index(self):
        trace = ColumnarTrace.from_requests(_requests())
        assert trace[-1] == _requests()[-1]

    def test_slice_returns_columnar(self):
        trace = ColumnarTrace.from_requests(_requests())
        view = trace[1:3]
        assert isinstance(view, ColumnarTrace)
        assert view.to_requests() == _requests()[1:3]

    def test_as_lists_native_scalars(self):
        trace = ColumnarTrace.from_requests(_requests())
        times, disks, blocks, nblocks, is_write = trace.as_lists()
        assert all(type(t) is float for t in times)
        assert all(type(d) is int for d in disks)
        assert all(type(w) is bool for w in is_write)
        assert blocks == [10, 20, 11, 0]
        assert nblocks == [1, 4, 1, 2]

    def test_num_disks_is_the_highest_id_plus_one(self):
        trace = ColumnarTrace.from_requests(_requests())
        assert trace.num_disks() == 3
        assert type(trace.num_disks()) is int
        assert trace[3:].num_disks() == 3
        assert trace[:0].num_disks() == 1

    def test_iter_accesses_expands_multiblock(self):
        # The vectorized expansion is block_keys() over every request,
        # in order, with each request's time and direction.
        trace = ColumnarTrace.from_requests(_requests())
        accesses, starts = trace.block_accesses()
        expected = [
            (req.time, key, req.is_write)
            for req in trace.to_requests()
            for key in req.block_keys()
        ]
        assert [
            (req.time, (req.disk, req.block), req.is_write)
            for req in accesses.to_requests()
        ] == expected
        assert accesses.nblocks.tolist() == [1] * len(expected)
        assert starts.tolist() == [0, 1, 5, 6]
        single = trace[:1]  # already one access per row
        assert single.block_accesses() == (single, None)

    def test_from_csv_matches_from_requests(self, tmp_path):
        requests = _requests()
        path = tmp_path / "trace.csv"
        save_trace(ColumnarTrace.from_requests(requests), path)
        trace = ColumnarTrace.from_csv(path)
        assert trace.to_requests() == requests

    def test_as_columnar_passthrough(self):
        # Rebuilding a trace from its own columns copies nothing.
        trace = ColumnarTrace.from_requests(_requests())
        names = ("times", "disks", "blocks", "nblocks", "is_write")
        again = ColumnarTrace(*(getattr(trace, name) for name in names))
        assert all(getattr(again, n) is getattr(trace, n) for n in names)
        assert again.to_requests() == _requests()


class TestChunkedRows:
    """``iter_chunks`` / ``iter_rows``: native rows, one chunk at a time."""

    def test_rows_are_the_native_rows_of_as_lists(self, monkeypatch):
        monkeypatch.setattr(columnar, "CHUNK_ROWS", 3)
        trace = ColumnarTrace.from_requests(_requests() * 2)
        rows = list(iter_rows(trace.columns()))
        assert rows == list(zip(*trace.as_lists()))
        assert all(
            [type(value) for value in row] == [float, int, int, int, bool]
            for row in rows
        )

    def test_chunks_follow_the_chunk_size(self, monkeypatch):
        monkeypatch.setattr(columnar, "CHUNK_ROWS", 3)
        values = np.arange(8)
        assert list(iter_chunks((values, values * 2))) == [
            [[0, 1, 2], [0, 2, 4]],
            [[3, 4, 5], [6, 8, 10]],
            [[6, 7], [12, 14]],
        ]
        assert list(iter_chunks((values[:6],))) == [[[0, 1, 2]], [[3, 4, 5]]]
        assert list(iter_chunks((values[:0],))) == []

    def test_chunks_end_where_told(self):
        values = np.arange(8)
        assert list(iter_chunks((values,), [1, 5, 8])) == [
            [[0]], [[1, 2, 3, 4]], [[5, 6, 7]]
        ]

    def test_save_and_iterate_cross_chunks(self, monkeypatch, tmp_path):
        monkeypatch.setattr(columnar, "CHUNK_ROWS", 3)
        requests = _requests() + [
            IORequest(time=req.time + 3.0, disk=req.disk, block=req.block)
            for req in _requests()
        ]
        trace = ColumnarTrace.from_requests(requests)
        assert list(trace) == requests
        save_trace(trace, tmp_path / "t.csv")
        assert ColumnarTrace.from_csv(tmp_path / "t.csv").to_requests() == (
            requests
        )


class TestValidation:
    def test_unequal_columns_rejected(self):
        with pytest.raises(TraceError):
            ColumnarTrace([0.0, 1.0], [0], [0], [1], [False])

    def test_first_disorder(self):
        trace = ColumnarTrace(
            [0.0, 1.0, 0.5], [0, 0, 0], [1, 2, 3], [1, 1, 1],
            [False, False, False],
        )
        assert trace.first_disorder() == 2
        with pytest.raises(TraceError):
            trace.validate()

    def test_ordered_trace_validates(self):
        trace = ColumnarTrace.from_requests(_requests())
        assert trace.first_disorder() is None
        trace.validate()


class TestGenerators:
    def test_columnar_generator_matches_legacy(self):
        # Every way of boxing generated columns as requests agrees:
        # to_requests() (the reference loop's input), iteration, indexing.
        cfg = SyntheticTraceConfig(num_requests=2000, num_disks=4, seed=31)
        trace = generate_synthetic_trace_columnar(cfg)
        requests = trace.to_requests()
        assert len(requests) == 2000
        assert list(trace) == requests
        assert [trace[i] for i in range(len(trace))] == requests

    def test_fingerprint_matches_legacy(self):
        cfg = SyntheticTraceConfig(num_requests=3000, num_disks=4, seed=8)
        reference = generate_synthetic_trace_columnar(cfg).to_requests()
        columnar = generate_synthetic_trace_columnar(cfg)
        assert trace_fingerprint(columnar) == trace_fingerprint(reference)
        assert trace_fingerprint(
            ColumnarTrace.from_requests(reference)
        ) == trace_fingerprint(reference)

    def test_fingerprint_order_sensitive_on_columns(self):
        trace = ColumnarTrace.from_requests(_requests())
        swapped = ColumnarTrace.from_requests(
            [_requests()[i] for i in (0, 2, 1, 3)]
        )
        assert trace_fingerprint(trace) != trace_fingerprint(swapped)


class TestSharedMemory:
    def test_share_and_attach_roundtrip(self):
        trace = ColumnarTrace.from_requests(_requests())
        try:
            descriptor, shm = trace.share()
        except (ImportError, OSError) as exc:  # pragma: no cover
            pytest.skip(f"shared memory unavailable: {exc}")
        try:
            attached = ColumnarTrace.from_shared(descriptor)
            try:
                assert attached.to_requests() == _requests()
            finally:
                attached.close()
        finally:
            shm.close()
            shm.unlink()

    def test_descriptor_is_picklable(self):
        import pickle

        trace = ColumnarTrace.from_requests(_requests())
        try:
            descriptor, shm = trace.share()
        except (ImportError, OSError) as exc:  # pragma: no cover
            pytest.skip(f"shared memory unavailable: {exc}")
        try:
            clone = pickle.loads(pickle.dumps(descriptor))
            assert clone == descriptor
        finally:
            shm.close()
            shm.unlink()
