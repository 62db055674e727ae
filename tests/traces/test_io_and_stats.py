"""Tests for trace persistence and characterization."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.traces.columnar import ColumnarTrace
from repro.traces.io import save_trace
from repro.traces.record import IORequest
from repro.traces.stats import characterize


def _save(requests, path):
    save_trace(ColumnarTrace.from_requests(requests), path)


def _load(path):
    return ColumnarTrace.from_csv(path).to_requests()


class TestTraceIO:
    def test_round_trip(self, tmp_path, tiny_trace):
        path = tmp_path / "trace.csv"
        _save(tiny_trace, path)
        assert _load(path) == tiny_trace

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(TraceError):
            _load(path)

    def test_bad_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,disk,block,nblocks,op\n1.0,0,5,1,X\n")
        with pytest.raises(TraceError):
            _load(path)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,disk,block,nblocks,op\n1.0,0,5\n")
        with pytest.raises(TraceError):
            _load(path)

    def test_disordered_file_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "time,disk,block,nblocks,op\n2.0,0,5,1,R\n1.0,0,6,1,R\n"
        )
        with pytest.raises(TraceError):
            _load(path)

    @pytest.mark.parametrize("time", ["nan", "inf", "-inf"])
    def test_non_finite_time_rejected(self, tmp_path, time):
        path = tmp_path / "bad.csv"
        path.write_text(
            f"time,disk,block,nblocks,op\n0.0,0,5,1,R\n{time},0,6,1,R\n"
        )
        with pytest.raises(TraceError, match=r"bad\.csv:3: bad record"):
            _load(path)

    def test_write_flag_preserved(self, tmp_path):
        trace = [IORequest(time=0.0, disk=0, block=1, is_write=True)]
        path = tmp_path / "w.csv"
        _save(trace, path)
        assert _load(path)[0].is_write


class TestHeaderNormalization:
    """Cosmetic header damage (BOM, stray spaces) must not reject a file."""

    def test_bom_header_accepted(self, tmp_path, tiny_trace):
        path = tmp_path / "trace.csv"
        _save(tiny_trace, path)
        bommed = tmp_path / "bom.csv"
        bommed.write_text("\ufeff" + path.read_text())
        assert _load(bommed) == tiny_trace

    def test_bom_header_accepted_columnar(self, tmp_path, tiny_trace):
        path = tmp_path / "trace.csv"
        _save(tiny_trace, path)
        bommed = tmp_path / "bom.csv"
        bommed.write_text("\ufeff" + path.read_text())
        assert ColumnarTrace.from_csv(bommed).to_requests() == tiny_trace

    def test_whitespace_header_accepted(self, tmp_path, tiny_trace):
        path = tmp_path / "trace.csv"
        _save(tiny_trace, path)
        header, _, body = path.read_text().partition("\n")
        padded = tmp_path / "padded.csv"
        padded.write_text(
            ",".join(f" {field} " for field in header.split(",")) + "\n" + body
        )
        assert _load(padded) == tiny_trace

    def test_wrong_header_still_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("\ufefftime,disk,block\n1.0,0,5\n")
        with pytest.raises(TraceError, match="bad header"):
            _load(path)


class TestRoundTripFidelity:
    """save -> load must preserve the trace identity exactly.

    The fingerprint keys the campaign result cache, so a lossy time
    encoding would silently invalidate (or worse, alias) cache entries.
    """

    def test_fingerprint_survives_round_trip(self, tmp_path):
        from repro.traces.fingerprint import trace_fingerprint
        from repro.traces.synthetic import (
            SyntheticTraceConfig,
            generate_synthetic_trace_columnar,
        )

        trace = generate_synthetic_trace_columnar(
            SyntheticTraceConfig(num_requests=500)
        ).to_requests()
        path = tmp_path / "trace.csv"
        _save(trace, path)
        assert trace_fingerprint(_load(path)) == trace_fingerprint(trace)

    @given(
        times=st.lists(
            st.floats(
                min_value=0.0,
                max_value=1e6,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_arbitrary_times_round_trip_exactly(self, times):
        from repro.traces.fingerprint import trace_fingerprint

        trace = [
            IORequest(time=t, disk=i % 3, block=i * 7, is_write=bool(i % 2))
            for i, t in enumerate(sorted(times))
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.csv"
            _save(trace, path)
            loaded = _load(path)
        assert [r.time for r in loaded] == [r.time for r in trace]
        assert trace_fingerprint(loaded) == trace_fingerprint(trace)


class TestCharacterize:
    def test_tiny_trace_stats(self, tiny_trace):
        stats = characterize(tiny_trace)
        assert stats.requests == 6
        assert stats.disks == 2
        assert stats.write_fraction == pytest.approx(1 / 6)
        assert stats.duration_s == pytest.approx(5.0)
        assert stats.mean_interarrival_s == pytest.approx(1.0)
        assert stats.distinct_blocks == 4
        assert stats.cold_fraction == pytest.approx(4 / 6)

    def test_empty_trace(self):
        stats = characterize([])
        assert stats.requests == 0
        assert stats.cold_fraction == 0.0

    def test_multiblock_counted_per_block(self):
        trace = [IORequest(time=0.0, disk=0, block=0, nblocks=4)]
        stats = characterize(trace)
        assert stats.distinct_blocks == 4

    def test_table_row_renders(self, tiny_trace):
        row = characterize(tiny_trace).table_row("tiny")
        assert "tiny" in row and "2" in row
