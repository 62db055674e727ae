"""One-call experiment helpers.

The benchmarks and examples all funnel through :func:`run_simulation`,
which builds the configured policy, write policy, and simulator, runs
it, and returns the :class:`~repro.sim.results.SimulationResult`.

Both the batch path and the online service mode are expressed on the
same incremental core: :func:`build_session` assembles a
:class:`~repro.sim.session.SimulationSession` from the by-name
parameters, ``run_simulation`` drives it with
:meth:`~repro.sim.session.SimulationSession.run_batch`, and the
``repro serve`` daemon drives an identically-built session with
:meth:`~repro.sim.session.SimulationSession.feed`.
"""

from __future__ import annotations

import dataclasses
import os
from pathlib import Path
from typing import Sequence

from repro.cache.policies import (
    ARCPolicy,
    BeladyPolicy,
    ClockPolicy,
    FIFOPolicy,
    LIRSPolicy,
    LRUPolicy,
    MQPolicy,
)
from repro.cache.policies.base import ReplacementPolicy
from repro.cache.write import (
    LogDevice,
    PeriodicFlushPolicy,
    WBEUPolicy,
    WriteBackPolicy,
    WritePolicy,
    WriteThroughPolicy,
    WTDUPolicy,
)
from repro.core.classifier import DiskClassifier
from repro.core.opg import OPGPolicy
from repro.core.pa import PowerAwarePolicy, make_pa_lru
from repro.core.prefetch import SequentialWakePrefetcher
from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.observe.bus import EventBus
from repro.observe.invariants import InvariantChecker
from repro.observe.sinks import JSONLSink, MetricsSink
from repro.power.envelope import EnergyEnvelope
from repro.power.specs import build_power_model
from repro.sim.config import SimulationConfig
from repro.sim.engine import StorageSimulator
from repro.sim.results import SimulationResult
from repro.sim.session import SessionCheckpoint, SimulationSession
from repro.snapshot import load_state
from repro.traces.record import IORequest

POLICY_NAMES = (
    "lru",
    "fifo",
    "clock",
    "arc",
    "mq",
    "lirs",
    "belady",
    "opg",
    "pa-lru",
    "pa-arc",
    "pa-mq",
    "pa-lirs",
    "infinite",
)

WRITE_POLICY_NAMES = (
    "write-through",
    "write-back",
    "wbeu",
    "wtdu",
    "periodic-flush",
)


def build_policy(
    name: str,
    config: SimulationConfig,
    theta: float = 0.0,
    pa_alpha: float = 0.5,
    pa_p: float = 0.8,
    pa_epoch_s: float = 900.0,
) -> ReplacementPolicy:
    """Build a replacement policy by name against a configuration.

    ``"infinite"`` returns plain LRU — the caller must pair it with
    ``cache_capacity_blocks=None`` (done automatically by
    :func:`run_simulation`), making the policy irrelevant.
    """
    key = name.lower()
    capacity = config.cache_capacity_blocks
    if key in ("lru", "infinite"):
        return LRUPolicy()
    if key == "fifo":
        return FIFOPolicy()
    if key == "clock":
        return ClockPolicy()
    if key in ("arc", "mq", "lirs"):
        if capacity is None:
            raise ConfigurationError(f"{name} needs a finite cache capacity")
        if key == "arc":
            return ARCPolicy(capacity)
        if key == "mq":
            return MQPolicy(capacity)
        return LIRSPolicy(capacity)
    if key == "belady":
        return BeladyPolicy()
    if key == "opg":
        model = build_power_model(config.spec, config.nap_rpms)
        dpm = config.make_dpm(model)
        return OPGPolicy(dpm.idle_energy, theta=theta)
    if key.startswith("pa-"):
        model = build_power_model(config.spec, config.nap_rpms)
        threshold_t = EnergyEnvelope(model).breakeven_time(1)
        if key == "pa-lru":
            return make_pa_lru(
                num_disks=config.num_disks,
                threshold_t=threshold_t,
                alpha=pa_alpha,
                p=pa_p,
                epoch_length_s=pa_epoch_s,
            )
        # PA over any capacity-aware base policy (the paper's "this
        # technique can also be applied to ARC or MQ"). Each sub-policy
        # may grow to the whole cache, so both get full capacity.
        bases = {"pa-arc": ARCPolicy, "pa-mq": MQPolicy, "pa-lirs": LIRSPolicy}
        base_cls = bases.get(key)
        if base_cls is not None:
            if capacity is None:
                raise ConfigurationError(f"{name} needs a finite cache capacity")
            classifier = DiskClassifier(
                num_disks=config.num_disks,
                threshold_t=threshold_t,
                alpha=pa_alpha,
                p=pa_p,
                epoch_length_s=pa_epoch_s,
            )
            return PowerAwarePolicy(classifier, lambda: base_cls(capacity))
    raise ConfigurationError(
        f"unknown policy {name!r}; expected one of {POLICY_NAMES}"
    )


def build_write_policy(
    name: str,
    num_disks: int,
    wbeu_dirty_threshold: int = 1024,
    log_region_blocks: int = 4096,
    flush_interval_s: float = 30.0,
) -> WritePolicy:
    """Build a write policy by name."""
    key = name.lower()
    if key in ("write-through", "wt"):
        return WriteThroughPolicy()
    if key in ("write-back", "wb"):
        return WriteBackPolicy()
    if key == "wbeu":
        return WBEUPolicy(dirty_threshold=wbeu_dirty_threshold)
    if key == "wtdu":
        return WTDUPolicy(
            LogDevice(num_disks, region_capacity_blocks=log_region_blocks)
        )
    if key == "periodic-flush":
        return PeriodicFlushPolicy(flush_interval_s=flush_interval_s)
    raise ConfigurationError(
        f"unknown write policy {name!r}; expected one of {WRITE_POLICY_NAMES}"
    )


def run_simulation(
    trace: Sequence[IORequest],
    policy: str = "lru",
    *,
    num_disks: int,
    cache_blocks: int | None,
    dpm: str = "practical",
    write_policy: str = "write-back",
    theta: float = 0.0,
    pa_alpha: float = 0.5,
    pa_p: float = 0.8,
    pa_epoch_s: float = 900.0,
    wbeu_dirty_threshold: int = 1024,
    log_region_blocks: int = 4096,
    flush_interval_s: float = 30.0,
    prefetch_depth: int = 0,
    label: str | None = None,
    config: SimulationConfig | None = None,
    probe=None,
    trace_events: bool = False,
    trace_file: str | Path | None = None,
    fault_plan: FaultPlan | None = None,
) -> SimulationResult:
    """Run one experiment end-to-end.

    Args:
        trace: Time-ordered request sequence.
        policy: One of :data:`POLICY_NAMES`.
        num_disks: Array size (ignored if ``config`` given).
        cache_blocks: Cache capacity (``"infinite"`` policy overrides
            this to unbounded).
        dpm: ``"practical"``, ``"oracle"``, or ``"always_on"``.
        write_policy: One of :data:`WRITE_POLICY_NAMES`.
        prefetch_depth: > 0 enables the power-aware sequential
            prefetcher riding paid-for spin-ups (online policies only).
        config: Full configuration override.
        probe: Extra event hook (callable or sink) subscribed to the
            run's event stream.
        trace_events: Attach a :class:`MetricsSink` and surface its
            snapshot as ``result.trace_metrics``.
        trace_file: Write every event as JSONL to this path.
        fault_plan: Arm seeded disk-fault injection for the run. Plans
            carrying a crash point are rejected here — crashes are the
            :mod:`repro.faults.harness` job (``run_simulation`` always
            runs traces to completion, so a crash point would be
            silently ignored).

    Setting ``REPRO_CHECK_INVARIANTS=1`` in the environment attaches an
    :class:`~repro.observe.invariants.InvariantChecker` to every run
    (used by CI), raising
    :class:`~repro.errors.InvariantViolation` on any breach.
    """
    if fault_plan is not None and fault_plan.has_crash_point:
        raise ConfigurationError(
            "fault_plan carries a crash point, which run_simulation would "
            "silently ignore; use repro.faults.run_crash_scenario instead"
        )
    check_invariants = os.environ.get("REPRO_CHECK_INVARIANTS", "") not in (
        "",
        "0",
    )
    metrics: MetricsSink | None = None
    effective_probe = probe
    bus: EventBus | None = None
    if trace_events or trace_file is not None or check_invariants:
        bus = EventBus()
        if trace_events:
            metrics = bus.attach(MetricsSink())
        if trace_file is not None:
            bus.attach(JSONLSink(trace_file))
        if check_invariants:
            bus.attach(InvariantChecker())
        if probe is not None:
            bus.attach(probe)
        effective_probe = bus
    session = build_session(
        trace,
        policy,
        num_disks=num_disks,
        cache_blocks=cache_blocks,
        dpm=dpm,
        write_policy=write_policy,
        theta=theta,
        pa_alpha=pa_alpha,
        pa_p=pa_p,
        pa_epoch_s=pa_epoch_s,
        wbeu_dirty_threshold=wbeu_dirty_threshold,
        log_region_blocks=log_region_blocks,
        flush_interval_s=flush_interval_s,
        prefetch_depth=prefetch_depth,
        label=label,
        config=config,
        probe=effective_probe,
        fault_plan=fault_plan,
    )
    try:
        result = session.run_batch()
    finally:
        if bus is not None:
            bus.close()
    if metrics is not None:
        result = dataclasses.replace(result, trace_metrics=metrics.as_dict())
    return result


def build_session(
    trace: Sequence[IORequest] = (),
    policy: str = "lru",
    *,
    num_disks: int,
    cache_blocks: int | None,
    dpm: str = "practical",
    write_policy: str = "write-back",
    theta: float = 0.0,
    pa_alpha: float = 0.5,
    pa_p: float = 0.8,
    pa_epoch_s: float = 900.0,
    wbeu_dirty_threshold: int = 1024,
    log_region_blocks: int = 4096,
    flush_interval_s: float = 30.0,
    prefetch_depth: int = 0,
    label: str | None = None,
    config: SimulationConfig | None = None,
    probe=None,
    fault_plan: FaultPlan | None = None,
    record_requests: bool = False,
) -> SimulationSession:
    """Assemble a :class:`SimulationSession` from by-name parameters.

    The shared construction path under both drive styles: batch runs
    pass the trace and call ``run_batch()``; live sessions (the ``repro
    serve`` daemon, the checkpoint tests) pass no trace and ``feed()``
    stamped batches. When ``config`` is ``None`` the by-name parameters
    are kept as the session's rebuild recipe, making it checkpointable
    (with ``record_requests=True``, which records nothing but opts in).
    """
    if policy.lower() == "infinite":
        cache_blocks = None
    rebuild_params = None
    if config is None:
        config = SimulationConfig(
            num_disks=num_disks,
            cache_capacity_blocks=cache_blocks,
            dpm=dpm,
        )
        rebuild_params = {
            "policy": policy,
            "num_disks": num_disks,
            "cache_blocks": cache_blocks,
            "dpm": dpm,
            "write_policy": write_policy,
            "theta": theta,
            "pa_alpha": pa_alpha,
            "pa_p": pa_p,
            "pa_epoch_s": pa_epoch_s,
            "wbeu_dirty_threshold": wbeu_dirty_threshold,
            "log_region_blocks": log_region_blocks,
            "flush_interval_s": flush_interval_s,
            "prefetch_depth": prefetch_depth,
            "label": label,
        }
    replacement = build_policy(
        policy,
        config,
        theta=theta,
        pa_alpha=pa_alpha,
        pa_p=pa_p,
        pa_epoch_s=pa_epoch_s,
    )
    writer = build_write_policy(
        write_policy,
        num_disks=config.num_disks,
        wbeu_dirty_threshold=wbeu_dirty_threshold,
        log_region_blocks=log_region_blocks,
        flush_interval_s=flush_interval_s,
    )
    prefetcher = (
        SequentialWakePrefetcher(depth=prefetch_depth)
        if prefetch_depth > 0
        else None
    )
    simulator = StorageSimulator(
        trace,
        config,
        replacement,
        write_policy=writer,
        prefetcher=prefetcher,
        label=label or ("infinite" if cache_blocks is None else policy),
        probe=probe,
        fault_plan=fault_plan,
    )
    return SimulationSession(
        simulator,
        rebuild_params=rebuild_params,
        record_requests=record_requests,
    )


def restore_session(
    checkpoint: SessionCheckpoint, *, probe=None
) -> SimulationSession:
    """Rebuild a checkpointed session from its parameters and snapshot.

    No request is replayed: the session is built fresh and its state is
    loaded. The restored session reports the checkpointed request count
    as served, and feeding it the remaining stream continues
    bit-identically to a session that was never checkpointed (the
    property test in ``tests/sim/test_session.py`` spreads restore
    points across whole traces to prove it).

    Raises:
        ConfigurationError: If the parameters cannot build a session or
            the snapshot does not match what they build.
    """
    try:
        session = build_session(
            probe=probe, record_requests=True, **checkpoint.params
        )
    except TypeError as exc:
        raise ConfigurationError(
            f"checkpoint parameters do not build a session: {exc}"
        ) from exc
    load_state(session, checkpoint.state)
    return session
