"""Incremental simulation sessions.

:class:`SimulationSession` is the stepping API the online service mode
(:mod:`repro.serve`) and the batch path share: requests are *fed* in
time-ordered batches, simulated time can be *advanced* across request
gaps, the accumulated state can be *checkpointed*, and *finalize*
produces the same :class:`~repro.sim.results.SimulationResult` a batch
run returns. ``run_simulation`` is re-expressed on top of a session
(see :func:`repro.sim.runner.build_session`), and the differential
tests in ``tests/sim/test_session.py`` pin the two drive styles —
``feed()`` batch by batch versus the batch run — to bit-identical
results. A probe-free session feeds each batch to the engine's generic
columnar loop, a probe-attached one to the ``handle_request``
reference (:meth:`~repro.sim.engine.StorageSimulator.handle_batch`);
the tests compare the columnar feed with the reference for every
online policy, write policy and DPM.

Checkpoints are **state snapshots**: the rebuild parameters plus the
``state_dict()`` of every stateful component (:mod:`repro.snapshot`).
Restoring rebuilds the session from the parameters and loads the
snapshot into it, replaying no requests: a restore costs a JSON parse,
not a re-simulation of the served history. The restored session is
state-identical to the original: continuing it with the same requests
yields bit-identical results (``tests/sim/test_session.py`` checks
this at spread restore points for every online policy, write policy
and DPM). The per-request response samples are the one snapshot term
that grows with every request; they stay so that a finished session's
result equals the batch run's, exact percentiles included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.cache.policies.base import OfflinePolicy
from repro.errors import ConfigurationError, SimulationError, TraceError
from repro.sim.engine import StorageSimulator
from repro.sim.results import SimulationResult
from repro.snapshot import load_state, state_of
from repro.traces.record import IORequest


@dataclass(frozen=True, slots=True)
class SessionCheckpoint:
    """Everything needed to rebuild a session at a request boundary.

    ``params`` are the :func:`~repro.sim.runner.build_session` keyword
    arguments; ``state`` is :meth:`SimulationSession.state_dict` at the
    checkpoint. ``metrics`` optionally carries a host's own counters:
    the serve daemon stores its ingest counters there
    (:func:`repro.serve.metrics.ingest_state`), the one ``/metrics``
    input that ``state`` does not hold.
    """

    params: dict
    state: dict
    metrics: dict | None = None

    @property
    def served(self) -> int:
        return int(self.state["served"])

    def to_dict(self) -> dict:
        """JSON-safe form (the serve layer's checkpoint file body)."""
        return {
            "params": dict(self.params),
            "state": self.state,
            "metrics": self.metrics,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SessionCheckpoint":
        state, metrics = data["state"], data.get("metrics")
        if not isinstance(state, dict):
            raise TypeError("the checkpoint state must be an object")
        if metrics is not None and not isinstance(metrics, dict):
            raise TypeError("the checkpoint metrics must be an object")
        return cls(params=dict(data["params"]), state=state, metrics=metrics)


class SimulationSession:
    """Drive one simulation incrementally.

    Args:
        simulator: A fresh :class:`~repro.sim.engine.StorageSimulator`.
            For :meth:`run_batch` it must have been constructed with
            the trace; for :meth:`feed`-driven sessions it is built
            with an empty trace.
        rebuild_params: The :func:`~repro.sim.runner.build_session`
            keyword arguments that produced ``simulator``; required for
            :meth:`checkpoint` (a checkpoint must be able to rebuild).
        record_requests: Opt in to :meth:`checkpoint`. The name is kept
            from the request-log checkpoints; nothing is recorded.
    """

    def __init__(
        self,
        simulator: StorageSimulator,
        *,
        rebuild_params: dict | None = None,
        record_requests: bool = False,
    ) -> None:
        self.simulator = simulator
        self.rebuild_params = rebuild_params
        self.record_requests = record_requests
        self._watermark = 0.0
        self._last_request_time = 0.0
        self._served = 0
        self._finalized = False
        self.result: SimulationResult | None = None

    # -- introspection ----------------------------------------------------

    @property
    def served(self) -> int:
        """Requests fed (and responded to) so far."""
        return self._served

    @property
    def now(self) -> float:
        """The session's simulated-time floor (last feed/advance)."""
        return self._watermark

    @property
    def last_request_time(self) -> float:
        return self._last_request_time

    @property
    def finalized(self) -> bool:
        return self._finalized

    # -- stepping ---------------------------------------------------------

    def feed(self, batch: Iterable[IORequest]) -> list[float]:
        """Serve a time-ordered batch; returns per-request latencies.

        Request times must be non-decreasing across *all* feeds and
        :meth:`advance_to` calls — the engine's trace-order contract,
        enforced here because live batches arrive piecewise. The whole
        batch is checked before any of it is simulated, so a rejected
        batch leaves the session as it was. The batch then runs through
        :meth:`StorageSimulator.handle_batch
        <repro.sim.engine.StorageSimulator.handle_batch>`: on the
        columnar loop for a probe-free session, through
        ``handle_request`` (every event emitted) for a probe-attached
        one.
        """
        self._check_open()
        if isinstance(self.simulator.policy, OfflinePolicy):
            raise ConfigurationError(
                f"offline policy {self.simulator.policy.name!r} needs the "
                "whole trace up front and cannot be fed incrementally; "
                "use run_batch() or an online policy"
            )
        requests = batch if isinstance(batch, Sequence) else list(batch)
        watermark = self._watermark
        for req in requests:
            if req.time < watermark:
                raise TraceError(
                    f"request at t={req.time} arrived behind the session "
                    f"watermark {watermark}; feeds must be time-ordered"
                )
            watermark = req.time
        responses = self.simulator.handle_batch(requests)
        self._served += len(responses)
        if responses:
            self._last_request_time = watermark
        self._watermark = watermark
        return responses

    def advance_to(self, time_s: float) -> None:
        """Raise the simulated-time floor without serving requests.

        The engine reconstructs idle gaps lazily (disks account their
        idle residency when next touched or at finalize), so advancing
        costs nothing now; it constrains future feeds to ``time_s`` or
        later and raises the default :meth:`finalize` horizon.
        """
        self._check_open()
        if time_s < self._watermark:
            raise TraceError(
                f"cannot advance to t={time_s}, behind the watermark "
                f"{self._watermark}"
            )
        self._watermark = time_s

    def checkpoint(self) -> SessionCheckpoint:
        """Snapshot the session at the current request boundary.

        Raises:
            ConfigurationError: If the session cannot be rebuilt from
                its parameters, or holds a component with no snapshot
                (a fault plan, an offline policy); no partial
                checkpoint is ever returned.
        """
        self._check_open()
        if not self.record_requests:
            raise ConfigurationError(
                "checkpointing needs record_requests=True at session "
                "construction"
            )
        if self.rebuild_params is None:
            raise ConfigurationError(
                "this session has no rebuild parameters (it was built "
                "around a custom SimulationConfig or simulator); "
                "checkpoints must be able to rebuild the session"
            )
        return SessionCheckpoint(
            params=dict(self.rebuild_params), state=state_of(self)
        )

    def state_dict(self) -> dict:
        """The simulator's snapshot plus the session's own counters."""
        return {
            "simulator": state_of(self.simulator),
            "watermark": self._watermark,
            "served": self._served,
            "last_request_time": self._last_request_time,
        }

    def load_state_dict(self, state: dict) -> None:
        """Load a :meth:`state_dict` into a fresh, unfed session built
        from the same parameters (through :func:`repro.snapshot.
        load_state`, which reports a mismatch or a malformed component
        as :class:`~repro.errors.ConfigurationError`). A session whose
        load failed is unusable and must be discarded.
        """
        self._check_open()
        if self._served:
            raise SimulationError("load_state_dict() on a fed session")
        load_state(self.simulator, state["simulator"])
        self._watermark = float(state["watermark"])
        self._served = int(state["served"])
        self._last_request_time = float(state["last_request_time"])

    # -- completion -------------------------------------------------------

    def finalize(self, end_time: float | None = None) -> SimulationResult:
        """Wind the array down and build the report (once).

        Without ``end_time`` the run ends at the batch path's horizon —
        last request time plus the configured trace tail — or at the
        :meth:`advance_to` watermark if that is later.
        """
        self._check_open()
        if end_time is None:
            tail = self.simulator.config.trace_tail_s
            end_time = max(self._watermark, self._last_request_time + tail)
        self._finalized = True
        self.result = self.simulator.finish(end_time)
        return self.result

    def run_batch(self) -> SimulationResult:
        """The batch path: run the constructor trace end to end.

        Delegates to :meth:`StorageSimulator.run` — offline-policy
        preparation, the columnar fast loop, and the trace-tail horizon
        all behave exactly as they always have; the session only owns
        the lifecycle. Mutually exclusive with :meth:`feed`.
        """
        self._check_open()
        if self._served:
            raise SimulationError(
                "run_batch() on a session that has already been fed; "
                "finish the incremental run with finalize()"
            )
        trace = self.simulator.trace
        self._finalized = True
        self._served = len(trace)
        if len(trace):
            self._last_request_time = trace[-1].time
            self._watermark = self._last_request_time
        self.result = self.simulator.run()
        return self.result

    def _check_open(self) -> None:
        if self._finalized:
            raise SimulationError("session already finalized")


def ordered_batches(
    requests: Sequence[IORequest], batch_size: int
) -> Iterable[Sequence[IORequest]]:
    """Split a trace into feed-sized batches (test/loadgen helper)."""
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    for start in range(0, len(requests), batch_size):
        yield requests[start : start + batch_size]
