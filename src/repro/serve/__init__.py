"""Online service mode: live request ingest over the batch engine.

The ``repro serve`` daemon wraps one incremental
:class:`~repro.sim.session.SimulationSession` with a TCP line protocol
and a minimal HTTP surface, advancing simulated time in lockstep with
wall time. Modules:

- :mod:`repro.serve.protocol` — the ``REQ``/``OK``/``RETRY`` line grammar
- :mod:`repro.serve.clock` — the wall-to-simulated lockstep clock
- :mod:`repro.serve.ingest` — bounded queue + explicit backpressure
- :mod:`repro.serve.daemon` — the asyncio server and drain lifecycle
- :mod:`repro.serve.metrics` — ``/metrics`` text exposition
- :mod:`repro.serve.checkpoint` — atomic state-snapshot checkpoint files
- :mod:`repro.serve.loadgen` — synthetic asyncio users
- :mod:`repro.serve.smoke` — the end-to-end smoke harness CI runs
"""

from repro.serve.checkpoint import (
    latest_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.serve.clock import LockstepClock
from repro.serve.daemon import (
    ServeConfig,
    ServeDaemon,
    result_digest,
    serve_until_drained,
)
from repro.serve.ingest import IngestQueue
from repro.serve.loadgen import LoadConfig, LoadReport, run_load
from repro.serve.metrics import render_metrics
from repro.serve.protocol import (
    IngestLine,
    Response,
    format_request,
    parse_request_line,
    parse_response_line,
)

__all__ = [
    "IngestLine",
    "IngestQueue",
    "LoadConfig",
    "LoadReport",
    "LockstepClock",
    "Response",
    "ServeConfig",
    "ServeDaemon",
    "format_request",
    "latest_checkpoint",
    "load_checkpoint",
    "parse_request_line",
    "parse_response_line",
    "render_metrics",
    "result_digest",
    "run_load",
    "save_checkpoint",
    "serve_until_drained",
]
