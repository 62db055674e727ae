"""Tests for the real-trace importers (repro.traces.ingest)."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError, TraceError
from repro.traces.columnar import ColumnarTrace
from repro.traces.fingerprint import trace_fingerprint
from repro.traces.ingest import (
    IMPORT_FORMATS,
    import_to_csv,
    import_trace,
    sniff_format,
)
from repro.units import DEFAULT_BLOCK_SIZE, SECTOR_SIZE

FIXTURES = Path(__file__).parent / "fixtures"


class TestBlktraceImport:
    def test_journal_fixture(self):
        trace, summary = import_trace(FIXTURES / "journal.blktrace")
        assert summary.format == "blktrace"
        # 10 event lines: 6 queue events carry data (G/D/C and the
        # flush are skipped), and the summary table ends parsing
        assert summary.requests == len(trace) == 6
        assert summary.num_disks == 2
        assert summary.skipped == 4

    def test_time_rebase_and_sector_remap(self):
        trace, _ = import_trace(FIXTURES / "journal.blktrace")
        assert trace.times[0] == 0.0  # rebased to the first queue event
        assert (np.diff(np.asarray(trace.times)) >= 0).all()
        # sector 223490 * 512 B mapped into 8 KiB simulator blocks
        assert trace.blocks[0] == 223490 * SECTOR_SIZE // DEFAULT_BLOCK_SIZE
        assert bool(trace.is_write[0]) is True

    def test_disk_ids_compact_in_first_seen_order(self):
        trace, _ = import_trace(FIXTURES / "journal.blktrace")
        # 8,0 appears before 8,16, so they become disks 0 and 1
        assert sorted(set(int(d) for d in trace.disks)) == [0, 1]
        assert int(trace.disks[0]) == 0

    def test_rwbs_modifiers(self):
        trace, _ = import_trace(FIXTURES / "journal.blktrace")
        writes = [bool(w) for w in trace.is_write]
        # W, RA (read-ahead -> read), R, WS (sync write), R, W
        assert writes == [True, False, False, True, False, True]

    def test_multi_sector_requests_span_blocks(self):
        trace, summary = import_trace(FIXTURES / "scan.blktrace")
        assert summary.requests == 5
        # 256 sectors of 512 B = 16 blocks of 8 KiB
        assert int(trace.nblocks[0]) == 256 * SECTOR_SIZE // DEFAULT_BLOCK_SIZE

    def test_block_size_rescales(self):
        trace, _ = import_trace(
            FIXTURES / "scan.blktrace", block_size=4096
        )
        assert int(trace.nblocks[0]) == 32


class TestIostatImport:
    def test_fileserver_fixture(self):
        trace, summary = import_trace(FIXTURES / "fileserver.iostat")
        assert summary.format == "iostat"
        assert summary.num_disks == 2
        # 6 intervals x ~960 tps across both devices; the first Device
        # block (since-boot averages) only registers devices
        assert summary.requests == len(trace) == 5760
        assert summary.requests >= 5000  # the CI smoke run relies on this

    def test_reads_and_writes_synthesized(self):
        trace, _ = import_trace(FIXTURES / "fileserver.iostat")
        writes = np.asarray(trace.is_write)
        assert 0.0 < float(writes.mean()) < 1.0

    def test_times_ordered_within_intervals(self):
        trace, _ = import_trace(FIXTURES / "fileserver.iostat")
        times = np.asarray(trace.times)
        assert (np.diff(times) >= 0).all()
        assert times.max() < 6.0  # 6 one-second intervals

    def test_interval_scaling(self):
        one, _ = import_trace(FIXTURES / "fileserver.iostat")
        ten, _ = import_trace(
            FIXTURES / "fileserver.iostat", interval_s=10.0
        )
        # tps x interval: ten-second intervals mean ~10x the requests
        assert len(ten) == pytest.approx(10 * len(one), rel=0.01)

    def test_extended_layout(self):
        trace, summary = import_trace(FIXTURES / "extended.iostat")
        assert summary.num_disks == 2
        # r/s + w/s across both devices and both measured intervals
        assert len(trace) == (96 + 24 + 12 + 6) + (88 + 22 + 11 + 6)

    def test_bad_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            import_trace(FIXTURES / "fileserver.iostat", interval_s=0.0)


class TestMalformedInput:
    @pytest.mark.parametrize(
        ("fixture", "message"),
        [
            ("bad_order.blktrace", "bad_order.blktrace:3: timestamps go backwards"),
            ("bad_op.blktrace", "bad_op.blktrace:2: unknown rwbs 'X'"),
            ("truncated.blktrace", "truncated.blktrace:2: truncated blktrace record"),
            ("bad_header.iostat", "bad_header.iostat:3: unsupported iostat header"),
        ],
    )
    def test_exact_diagnostics(self, fixture, message):
        with pytest.raises(TraceError) as excinfo:
            import_trace(FIXTURES / fixture)
        assert message in str(excinfo.value)

    @pytest.mark.parametrize(
        ("fixture", "message"),
        [
            ("nan_time.blktrace", "nan_time.blktrace:1: timestamp 'nan' is not finite"),
            ("nan_rate.iostat", "nan_rate.iostat:7: rate 'nan' is not finite"),
        ],
    )
    def test_non_finite_values_rejected(self, fixture, message):
        with pytest.raises(TraceError) as excinfo:
            import_trace(FIXTURES / fixture)
        assert message in str(excinfo.value)

    def test_bad_timestamp(self, tmp_path):
        path = tmp_path / "bad_time.blktrace"
        path.write_text("8,0 0 1 nonsense 697 Q R 1024 + 8 [app]\n")
        with pytest.raises(TraceError, match="1: bad timestamp 'nonsense'"):
            import_trace(path)

    def test_unsniffable_file(self, tmp_path):
        path = tmp_path / "garbage.txt"
        path.write_text("hello world\n")
        with pytest.raises(TraceError, match="cannot determine trace format"):
            import_trace(path)

    def test_unknown_format_name(self):
        with pytest.raises(ConfigurationError, match="unknown trace format"):
            import_trace(FIXTURES / "journal.blktrace", fmt="parquet")


class TestSniffing:
    @pytest.mark.parametrize(
        ("fixture", "expected"),
        [
            ("journal.blktrace", "blktrace"),
            ("scan.blktrace", "blktrace"),
            ("fileserver.iostat", "iostat"),
            ("extended.iostat", "iostat"),
            ("bad_header.iostat", "iostat"),
        ],
    )
    def test_fixture_formats(self, fixture, expected):
        assert sniff_format(FIXTURES / fixture) == expected

    def test_registry_names(self):
        assert sorted(IMPORT_FORMATS) == ["blktrace", "iostat"]


class TestImportToCsv:
    @pytest.mark.parametrize(
        "fixture",
        ["journal.blktrace", "scan.blktrace", "fileserver.iostat"],
    )
    def test_matches_direct_import(self, fixture, tmp_path):
        direct, _ = import_trace(FIXTURES / fixture)
        out = tmp_path / "out.csv"
        summary = import_to_csv(FIXTURES / fixture, out)
        reloaded = ColumnarTrace.from_csv(out)
        assert summary.requests == len(reloaded) == len(direct)
        assert trace_fingerprint(reloaded) == trace_fingerprint(direct)


@pytest.mark.slow
class TestBoundedMemory:
    def test_import_to_csv_is_streaming(self, tmp_path):
        """Peak memory must not scale with the input trace length."""
        src = tmp_path / "big.blktrace"
        with open(src, "w") as fh:
            for i in range(150_000):
                fh.write(
                    f"8,0 0 {i} {i * 0.001:.6f} 1 Q R {i * 16} + 16 [gen]\n"
                )
        dst = tmp_path / "big.csv"
        tracemalloc.start()
        try:
            summary = import_to_csv(src, dst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert summary.requests == 150_000
        # one row in flight at a time: far below the ~12 MB the
        # materialized trace would need
        assert peak < 4 << 20
