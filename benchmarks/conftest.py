"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper. Results
are printed (visible with ``pytest -s``) and also written to
``benchmarks/results/<name>.txt`` so the rendered rows survive pytest's
output capture.

The traces are the full-scale synthetic equivalents (OLTP: 2 h / ~73 k
requests; Cello: 30 min / ~330 k requests); Figure 9 uses smaller
Table-3 traces per sweep point to keep the 100+ runs tractable.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.traces.cello import CelloTraceConfig, generate_cello_trace_columnar
from repro.traces.oltp import OLTPTraceConfig, generate_oltp_trace_columnar

RESULTS_DIR = Path(__file__).parent / "results"

#: Cache sizes for the replacement study. The paper used 128 MB (OLTP)
#: and 32 MB (Cello) against multi-day production traces; our synthetic
#: equivalents have proportionally smaller working sets, so the caches
#: are scaled to preserve the paper's cache-pressure regime (see
#: DESIGN.md, "Substitutions").
OLTP_CACHE_BLOCKS = 2048
CELLO_CACHE_BLOCKS = 4096


# Columnar traces, so the figure runs take the engine's fast loops; the
# rendered results are byte-identical to the row-by-row reference.
@pytest.fixture(scope="session")
def oltp_trace():
    return generate_oltp_trace_columnar(OLTPTraceConfig())


@pytest.fixture(scope="session")
def cello_trace():
    return generate_cello_trace_columnar(CelloTraceConfig())


@pytest.fixture(scope="session")
def report():
    """Returns a callable that prints and persists a rendered report."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _report(name: str, text: str) -> None:
        print(f"\n{text}\n")
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _report
