"""The columnar equivalence and fused-loop differential suites again,
with 7-row chunks.

The columnar loops box ``CHUNK_ROWS`` rows of a trace at a time
(:func:`repro.traces.columnar.iter_chunks`): the generic loop runs once
per chunk, the fused loops zip their plan columns per chunk, and on a
multi-block trace each chunk ends on a request boundary and folds its
per-access responses before the next one is boxed. At the real size
(65,536) no trace in those suites reaches a second chunk. Shrunk to
the prime 7, chunk boundaries land everywhere: inside PA epochs and at
their rolls, between an OPG eviction and the gap splits it causes,
between a dirty eviction and its write-back, and between the blocks of
multi-block requests, wherever the request-aligned cut falls. Every
result must still equal the ``handle_request`` reference byte for byte.
"""

import pytest

from repro.sim.engine import StorageSimulator
from repro.sim.runner import run_simulation
from repro.traces import columnar
from tests.sim.test_columnar_equivalence import *  # noqa: F401,F403
from tests.sim.test_kernel_differential import *  # noqa: F401,F403


@pytest.fixture(autouse=True)
def seven_row_chunks(monkeypatch):
    monkeypatch.setattr(columnar, "CHUNK_ROWS", 7)


def test_the_generic_loop_runs_once_per_chunk(monkeypatch):
    # the patched size reaches the engine: 20 rows are three chunks
    calls = []
    generic = StorageSimulator._run_columnar_fast

    def counted(self, times, *columns):
        calls.append(len(times))
        return generic(self, times, *columns)

    monkeypatch.setattr(StorageSimulator, "_run_columnar_fast", counted)
    trace = columnar.ColumnarTrace(
        [float(i) for i in range(20)], [0] * 20, list(range(20)),
        [1] * 20, [False] * 20,
    )
    result = run_simulation(trace, "lru", num_disks=1, cache_blocks=8)
    assert calls == [7, 7, 6]
    assert result.cache_accesses == 20
