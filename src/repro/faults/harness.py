"""The crash/recovery harness.

Section 6's persistency claim for WTDU rests on a recovery protocol —
timestamped log regions whose replay set is reconstructed after power
loss — that an ordinary simulation never exercises: the engine runs
traces to completion. This harness cuts the power.

:func:`run_crash_scenario` drives a fully configured simulator request
by request up to a crash point (an arbitrary request index or simulated
time), then models the power cut:

* the **storage cache is volatile** — every cached copy is gone, so an
  acknowledged write whose data only lives in the cache is lost;
* the **home disks hold** exactly the blocks that were written home
  before the cut (the simulator's dirty/logged bookkeeping is the
  ground truth for what had *not* reached home);
* the **log device is NVRAM** — its regions survive, and
  :meth:`~repro.cache.write.log_region.LogRegion.recover` reconstructs
  the replay set the way the paper's recovery process does.

The resulting :class:`CrashReport` compares the replay set against the
acknowledged-but-unhomed writes: WT and WTDU must show zero loss at
*every* crash point (WT because nothing is ever unhomed, WTDU because
recovery replays exactly the deferred writes); WB, WBEU, and
periodic-flush lose their currently-dirty window, which the report
quantifies instead of hiding.

Imports from :mod:`repro.sim` happen inside functions: the engine
imports :mod:`repro.faults` for the injector, so module-level imports
the other way would be circular.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.cache.write.wtdu import WTDUPolicy
from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.observe.events import RecoveryReplay
from repro.traces.record import IORequest

#: Disk id -> sorted block numbers.
BlockSets = Mapping[int, tuple[int, ...]]

#: Write policies whose contract is zero loss at any crash point.
PERSISTENT_WRITE_POLICIES = frozenset({"write-through", "wt", "wtdu"})


@dataclass(frozen=True)
class CrashReport:
    """What a power cut would have cost, and what recovery got back."""

    label: str
    write_policy: str
    #: Requests completed before the cut.
    crash_index: int
    #: Simulated time of the last completed request (0.0 if none).
    crash_time: float
    requests_total: int
    #: Acknowledged write accesses (block granularity) before the cut.
    acked_writes: int
    #: Acknowledged writes whose data had not reached its home disk.
    unhomed: BlockSets
    #: Blocks the recovery protocol replays (empty for non-WTDU).
    replayed: BlockSets

    @property
    def lost(self) -> dict[int, tuple[int, ...]]:
        """Unhomed acknowledged writes recovery does not bring back."""
        out: dict[int, tuple[int, ...]] = {}
        for disk, blocks in self.unhomed.items():
            missing = sorted(set(blocks) - set(self.replayed.get(disk, ())))
            if missing:
                out[disk] = tuple(missing)
        return out

    @property
    def spurious(self) -> dict[int, tuple[int, ...]]:
        """Replayed blocks that were not pending — a recovery-set bug."""
        out: dict[int, tuple[int, ...]] = {}
        for disk, blocks in self.replayed.items():
            extra = sorted(set(blocks) - set(self.unhomed.get(disk, ())))
            if extra:
                out[disk] = tuple(extra)
        return out

    @property
    def lost_blocks(self) -> int:
        return sum(len(b) for b in self.lost.values())

    @property
    def unhomed_blocks(self) -> int:
        return sum(len(b) for b in self.unhomed.values())

    @property
    def replayed_blocks(self) -> int:
        return sum(len(b) for b in self.replayed.values())

    @property
    def zero_loss(self) -> bool:
        """Recovery covers every acknowledged write, exactly."""
        return not self.lost and not self.spurious

    @property
    def persistency_expected(self) -> bool:
        return self.write_policy.lower() in PERSISTENT_WRITE_POLICIES

    @property
    def verdict(self) -> str:
        if self.zero_loss:
            return "ok"
        if self.persistency_expected:
            return "LOSS"  # a persistent policy lost data: a real bug
        return f"lost {self.lost_blocks}"


def run_crash_scenario(
    trace: Sequence[IORequest],
    *,
    num_disks: int,
    cache_blocks: int | None,
    policy: str = "lru",
    write_policy: str = "wtdu",
    dpm: str = "practical",
    crash_at: int | None = None,
    crash_time: float | None = None,
    fault_plan: FaultPlan | None = None,
    log_region_blocks: int = 4096,
    wbeu_dirty_threshold: int = 1024,
    flush_interval_s: float = 30.0,
    label: str | None = None,
    probe=None,
) -> CrashReport:
    """Run until the crash point, cut power, audit recovery.

    ``crash_at`` counts completed requests (``crash_at=k`` serves
    requests ``0..k-1``); ``crash_time`` cuts before the first request
    at or past that simulated time. Exactly one must be given — either
    directly or through ``fault_plan``. The optional ``fault_plan``
    also arms disk faults (failed spin-ups, transient I/O errors) for
    the pre-crash run.
    """
    # Deferred to avoid a circular import (engine -> faults.injector).
    from repro.sim.config import SimulationConfig
    from repro.sim.engine import StorageSimulator
    from repro.sim.runner import build_policy, build_write_policy

    if fault_plan is not None:
        if crash_at is None and crash_time is None:
            crash_at = fault_plan.crash_at_request
            crash_time = fault_plan.crash_at_time
    if (crash_at is None) == (crash_time is None):
        raise ConfigurationError(
            "exactly one of crash_at / crash_time is required "
            f"(got crash_at={crash_at}, crash_time={crash_time})"
        )

    requests = list(trace)
    config = SimulationConfig(
        num_disks=num_disks, cache_capacity_blocks=cache_blocks, dpm=dpm
    )
    replacement = build_policy(policy, config)
    writer = build_write_policy(
        write_policy,
        num_disks=config.num_disks,
        wbeu_dirty_threshold=wbeu_dirty_threshold,
        log_region_blocks=log_region_blocks,
        flush_interval_s=flush_interval_s,
    )
    simulator = StorageSimulator(
        requests,
        config,
        replacement,
        write_policy=writer,
        label=label or f"crash:{policy}+{writer.name}",
        probe=probe,
        fault_plan=fault_plan,
    )
    simulator.prepare_offline()

    served = 0
    acked_writes = 0
    last_time = 0.0
    for request in requests:
        if crash_at is not None and served >= crash_at:
            break
        if crash_time is not None and request.time >= crash_time:
            break
        simulator.handle_request(request)
        served += 1
        last_time = request.time
        if request.is_write:
            acked_writes += request.nblocks

    # -- power cut: the cache is gone, home disks and NVRAM log remain --
    cache = simulator.cache
    unhomed = {
        disk.disk_id: tuple(
            block for _, block in cache.dirty_blocks(disk.disk_id)
        )
        for disk in simulator.array.disks
        if cache.dirty_count(disk.disk_id)
    }
    replayed: dict[int, tuple[int, ...]] = {}
    if isinstance(writer, WTDUPolicy):
        for disk_id, keys in writer.log.recover_all().items():
            if keys:
                replayed[disk_id] = tuple(block for _, block in keys)
                if probe is not None:
                    probe(RecoveryReplay(last_time, disk_id, len(keys)))
    return CrashReport(
        label=simulator.label,
        write_policy=writer.name,
        crash_index=served,
        crash_time=last_time,
        requests_total=len(requests),
        acked_writes=acked_writes,
        unhomed=unhomed,
        replayed=replayed,
    )
