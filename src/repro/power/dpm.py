"""Disk power management schemes: Oracle, Practical (threshold), always-on.

A DPM scheme decides how the spindle behaves during an *idle gap* — the
interval between the completion of one disk request and the arrival of
the next. The simulator drives DPM lazily: when the next request
arrives, the gap length is known and :meth:`DiskPowerManager.process_idle`
reconstructs what happened during it.

* :class:`OracleDPM` knows the gap length in advance (offline): it
  parks in the energy-optimal feasible mode and is spinning again just
  in time, so it never delays a request.
* :class:`PracticalDPM` is the online threshold scheme: the disk steps
  down the mode ladder at the Irani 2-competitive thresholds, and a
  request arriving while the disk is parked pays the spin-up time as
  response-time delay (plus the remainder of any in-flight spin-down).
* :class:`AlwaysOnDPM` never leaves mode 0 (the no-power-management
  baseline).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.power.envelope import EnergyEnvelope
from repro.power.modes import PowerModel


@dataclass(slots=True)
class IdleOutcome:
    """What happened on a disk during one idle gap.

    ``energy_j`` covers everything *inside* the gap (mode residency and
    transitions that ran during it). For Practical DPM a request that
    finds the disk parked additionally pays ``wake_delay_s`` /
    ``wake_energy_j`` *after* the gap ends — the engine adds these to
    response time and energy separately.
    """

    energy_j: float = 0.0
    mode_residency_s: dict[int, float] = field(default_factory=dict)
    transition_time_s: float = 0.0
    transition_energy_j: float = 0.0
    spindowns: int = 0
    spinups: int = 0
    wake_delay_s: float = 0.0
    wake_energy_j: float = 0.0

    @property
    def total_energy_j(self) -> float:
        """Gap energy plus the wake-up energy charged after it."""
        return self.energy_j + self.wake_energy_j

    def _add_residency(self, mode: int, seconds: float, power_w: float) -> None:
        if seconds <= 0:
            return
        self.mode_residency_s[mode] = (
            self.mode_residency_s.get(mode, 0.0) + seconds
        )
        self.energy_j += seconds * power_w


class DiskPowerManager(ABC):
    """Strategy interface for disk power management."""

    #: Gaps of at most this length are "quiet": the disk stays in mode
    #: 0 the whole time, spending ``duration * quick_idle_power_w``
    #: joules with no transitions and no wake cost. The simulated
    #: disk's fast path uses these two attributes to account such gaps
    #: inline instead of building an :class:`IdleOutcome`; ``0.0``
    #: (the conservative default) disables the shortcut.
    quick_idle_limit: float = 0.0
    quick_idle_power_w: float = 0.0

    def __init__(self, model: PowerModel) -> None:
        self.model = model

    @abstractmethod
    def process_idle(self, duration: float, wake: bool = True) -> IdleOutcome:
        """Reconstruct one idle gap of ``duration`` seconds.

        Args:
            duration: Gap length (>= 0).
            wake: Whether a request arrives at the end of the gap. Pass
                ``False`` for the trailing gap at the end of a trace, so
                no spin-up is charged.
        """

    def idle_energy(self, duration: float) -> float:
        """Total energy (gap + wake) for a gap of ``duration`` seconds.

        This is the cost function OPG's energy penalties are computed
        against; it is exactly consistent with what the simulation
        engine will charge.
        """
        return self.process_idle(duration).total_energy_j

    def account_idle(self, duration: float, wake, account) -> float:
        """Process a gap and fold it into ``account``; returns the wake
        delay. Semantically ``account.add_idle(process_idle(...))`` —
        schemes with memo tables override this to skip the outcome
        object entirely."""
        outcome = self.process_idle(duration, wake)
        account.add_idle(outcome)
        return outcome.wake_delay_s

    def state_dict(self) -> dict:
        """Mutable fields only (see :mod:`repro.snapshot`). The built-in
        schemes keep none — their memo tables rebuild from the model —
        so a scheme that adapts must override both snapshot methods."""
        return {}

    def load_state_dict(self, state: dict) -> None:
        pass

    @abstractmethod
    def mode_after_idle(self, elapsed: float) -> int:
        """Mode the disk occupies after being idle for ``elapsed`` seconds.

        Mid-transition states report the *target* mode. Used by write
        policies to ask "is this disk parked right now?".
        """


class AlwaysOnDPM(DiskPowerManager):
    """Baseline: the disk idles at full speed through every gap."""

    quick_idle_limit = float("inf")

    def __init__(self, model: PowerModel) -> None:
        super().__init__(model)
        self.quick_idle_power_w = model[0].power_w

    def process_idle(self, duration: float, wake: bool = True) -> IdleOutcome:
        if duration < 0:
            raise ValueError(f"idle duration must be >= 0, got {duration}")
        outcome = IdleOutcome()
        outcome._add_residency(0, duration, self.model[0].power_w)
        return outcome

    def mode_after_idle(self, elapsed: float) -> int:
        return 0


class OracleDPM(DiskPowerManager):
    """Offline power management with perfect knowledge of gap lengths.

    Charges the Figure 2 lower-envelope energy for each gap and incurs
    no wake-up delay (the spin-up completes exactly when the next
    request arrives). This is the paper's upper bound on DPM savings
    for a given miss sequence.
    """

    def __init__(self, model: PowerModel, envelope: EnergyEnvelope | None = None):
        super().__init__(model)
        self.envelope = envelope or EnergyEnvelope(model)

    def process_idle(self, duration: float, wake: bool = True) -> IdleOutcome:
        if duration < 0:
            raise ValueError(f"idle duration must be >= 0, got {duration}")
        outcome = IdleOutcome()
        mode = self.envelope.best_mode(duration) if wake else self._final_mode(duration)
        m = self.model[mode]
        if mode == 0:
            outcome._add_residency(0, duration, m.power_w)
            return outcome
        if wake:
            residency = duration - m.round_trip_time_s
            outcome.transition_time_s = m.round_trip_time_s
            outcome.transition_energy_j = m.round_trip_energy_j
            outcome.spinups = 1
        else:
            residency = duration - m.spindown_time_s
            outcome.transition_time_s = m.spindown_time_s
            outcome.transition_energy_j = m.spindown_energy_j
        outcome.spindowns = 1
        outcome.energy_j += outcome.transition_energy_j
        outcome._add_residency(mode, residency, m.power_w)
        return outcome

    def _final_mode(self, duration: float) -> int:
        """Best mode for a trailing gap (spin down, never back up)."""
        best, best_e = 0, self.model[0].power_w * duration
        for i in range(1, len(self.model)):
            m = self.model[i]
            if duration < m.spindown_time_s:
                continue
            e = m.spindown_energy_j + m.power_w * (duration - m.spindown_time_s)
            if e < best_e:
                best, best_e = i, e
        return best

    def idle_energy(self, duration: float) -> float:
        # Closed form — avoids building an IdleOutcome per penalty query.
        return self.envelope.min_energy(duration)

    def mode_after_idle(self, elapsed: float) -> int:
        # Oracle has no online notion of "current mode"; approximate
        # with the mode it would have parked in had the gap ended now.
        return self.envelope.best_mode(elapsed) if elapsed > 0 else 0


@dataclass(frozen=True)
class _Step:
    """One rung of the Practical DPM descent schedule.

    The downshift into ``mode`` begins at cumulative idle time
    ``start_t``, takes ``shift_time`` and ``shift_energy``, and the disk
    then resides in ``mode`` until the next rung (or the gap ends).
    """

    mode: int
    start_t: float
    shift_time: float
    shift_energy: float


class _SegmentTable:
    """Piecewise precomputation of one descent schedule.

    A gap of length ``d`` lands in one of ``2K+1`` segments (``K``
    rungs): residency segments ``[e_i, s_{i+1}]`` alternating with
    open shift intervals ``(s_i, e_i)``. Everything the incremental
    walk accumulates before the segment containing ``d`` is a constant
    of the schedule, so it is replayed ONCE here — with the walk's
    exact left-to-right float additions, which makes every lookup
    bit-identical to the walk it replaces (the walks survive as
    ``PracticalDPM._walk_*`` and a lockstep test compares them) — and
    each query is then a bisect plus O(1) arithmetic.
    """

    __slots__ = (
        "bounds",
        "start_ts",
        "res_cursor",
        "res_mode",
        "res_power",
        "res_prefix",
        "res_pairs",
        "res_ttime",
        "res_tenergy",
        "res_spinup_t",
        "res_spinup_e",
        "sh_start",
        "sh_time",
        "sh_energy",
        "sh_end",
        "sh_prefix",
        "sh_pairs",
        "sh_ttime",
        "sh_tenergy",
        "sh_spinup_t",
        "sh_spinup_e",
        "sh_ie_total",
    )

    def __init__(
        self, model: PowerModel, start_mode: int, steps: list[_Step]
    ) -> None:
        first = model[start_mode]
        #: segment boundaries [s1, e1, s2, e2, ...] for bisect lookup
        self.bounds: list[float] = []
        self.start_ts: list[float] = []
        # residency segment j = after j completed downshifts
        self.res_cursor = [0.0]
        self.res_mode = [start_mode]
        self.res_power = [first.power_w]
        self.res_prefix = [0.0]
        self.res_pairs: list[tuple[tuple[int, float], ...]] = [()]
        self.res_ttime = [0.0]
        self.res_tenergy = [0.0]
        self.res_spinup_t = [first.spinup_time_s]
        self.res_spinup_e = [first.spinup_energy_j]
        # shift segment k = mid-downshift into rung k's mode
        self.sh_start: list[float] = []
        self.sh_time: list[float] = []
        self.sh_energy: list[float] = []
        self.sh_end: list[float] = []
        self.sh_prefix: list[float] = []
        self.sh_pairs: list[tuple[tuple[int, float], ...]] = []
        self.sh_ttime: list[float] = []
        self.sh_tenergy: list[float] = []
        self.sh_spinup_t: list[float] = []
        self.sh_spinup_e: list[float] = []
        self.sh_ie_total: list[float] = []

        energy = 0.0
        ttime = 0.0
        tenergy = 0.0
        pairs: list[tuple[int, float]] = []
        mode = start_mode
        cursor = 0.0
        for step in steps:
            shift_time = model.downshift_time(mode, step.mode)
            shift_energy = model.downshift_energy(mode, step.mode)
            seconds = step.start_t - cursor
            if seconds > 0:
                energy += seconds * model[mode].power_w
                pairs.append((mode, seconds))
            up = model[step.mode]
            shift_end = step.start_t + shift_time
            self.sh_start.append(step.start_t)
            self.sh_time.append(shift_time)
            self.sh_energy.append(shift_energy)
            self.sh_end.append(shift_end)
            self.sh_prefix.append(energy)
            self.sh_pairs.append(tuple(pairs))
            self.sh_ttime.append(ttime)
            self.sh_tenergy.append(tenergy)
            self.sh_spinup_t.append(up.spinup_time_s)
            self.sh_spinup_e.append(up.spinup_energy_j)
            self.sh_ie_total.append((energy + shift_energy) + up.spinup_energy_j)
            energy += shift_energy
            ttime += shift_time
            tenergy += shift_energy
            mode = step.mode
            cursor = shift_end
            self.bounds.append(step.start_t)
            self.bounds.append(shift_end)
            self.start_ts.append(step.start_t)
            self.res_cursor.append(cursor)
            self.res_mode.append(mode)
            self.res_power.append(model[mode].power_w)
            self.res_prefix.append(energy)
            self.res_pairs.append(tuple(pairs))
            self.res_ttime.append(ttime)
            self.res_tenergy.append(tenergy)
            self.res_spinup_t.append(up.spinup_time_s)
            self.res_spinup_e.append(up.spinup_energy_j)

    def account_into(self, duration: float, wake: bool, account) -> float:
        """Fold a gap of ``duration`` seconds straight into ``account``.

        Equivalent to ``account.add_idle(self.outcome(duration, wake))``
        — the lockstep test pins this bit for bit — but without
        materializing the :class:`IdleOutcome` or its residency dict.
        Returns the wake delay the next request must absorb.
        """
        bounds = self.bounds
        idx = bisect_left(bounds, duration)
        wake_delay = 0.0
        wake_energy = 0.0
        spinups = 0
        if idx & 1:
            if bounds[idx] == duration:
                idx += 1
                j = idx >> 1
                seconds = duration - self.res_cursor[j]
            else:
                k = idx >> 1
                start = self.sh_start[k]
                shift_energy = self.sh_energy[k]
                frac = (duration - start) / self.sh_time[k]
                in_gap = shift_energy * frac
                if wake:
                    wake_delay = (
                        self.sh_end[k] - duration
                    ) + self.sh_spinup_t[k]
                    wake_energy = (
                        shift_energy * (1.0 - frac) + self.sh_spinup_e[k]
                    )
                    spinups = 1
                items = self.sh_pairs[k]
                energy = self.sh_prefix[k] + in_gap
                t_time = self.sh_ttime[k] + (duration - start)
                t_energy = self.sh_tenergy[k] + in_gap
                spindowns = k + 1
                return self._fold(
                    account, items, energy, t_time, t_energy,
                    wake_delay, wake_energy, spinups, spindowns,
                )
        else:
            j = idx >> 1
            seconds = duration - self.res_cursor[j]
        energy = self.res_prefix[j]
        items = self.res_pairs[j]
        mode = self.res_mode[j]
        if wake and mode != 0:
            wake_delay = self.res_spinup_t[j]
            wake_energy = self.res_spinup_e[j]
            spinups = 1
        if seconds > 0 and not items:
            # single-residency gap: the common case once the quick-idle
            # shortcut has absorbed the sub-threshold gaps
            energy = energy + seconds * self.res_power[j]
            mode_time = account.mode_time_s
            mode_time[mode] = mode_time.get(mode, 0.0) + seconds
            mode_energy = account.mode_energy_j
            mode_energy[mode] = mode_energy.get(mode, 0.0) + (
                energy - self.res_tenergy[j]
            )
            account.transition_time_s += self.res_ttime[j] + wake_delay
            account.transition_energy_j += self.res_tenergy[j] + wake_energy
            account.spinups += spinups
            account.spindowns += j
            return wake_delay
        if seconds > 0:
            energy = energy + seconds * self.res_power[j]
            # the ladder never revisits a mode, so appending preserves
            # the residency dict's insertion order
            items = items + ((mode, seconds),)
        return self._fold(
            account, items, energy, self.res_ttime[j], self.res_tenergy[j],
            wake_delay, wake_energy, spinups, j,
        )

    @staticmethod
    def _fold(
        account,
        items,
        energy,
        t_time,
        t_energy,
        wake_delay,
        wake_energy,
        spinups,
        spindowns,
    ) -> float:
        """Replay ``EnergyAccount.add_idle`` for a decomposed outcome.

        ``items`` is the residency dict as ordered ``(mode, seconds)``
        pairs; the float additions match ``add_idle`` exactly. Returns
        ``wake_delay`` for the caller's convenience.
        """
        mode_time = account.mode_time_s
        mode_energy = account.mode_energy_j
        if len(items) == 1:
            mode, seconds = items[0]
            mode_time[mode] = mode_time.get(mode, 0.0) + seconds
            mode_energy[mode] = mode_energy.get(mode, 0.0) + (
                energy - t_energy
            )
        else:
            for mode, seconds in items:
                if seconds > 0:
                    mode_time[mode] = mode_time.get(mode, 0.0) + seconds
            residency_energy = energy - t_energy
            total_res = 0.0
            for _, seconds in items:
                total_res += seconds
            if total_res > 0:
                for mode, seconds in items:
                    mode_energy[mode] = mode_energy.get(
                        mode, 0.0
                    ) + residency_energy * (seconds / total_res)
        account.transition_time_s += t_time + wake_delay
        account.transition_energy_j += t_energy + wake_energy
        account.spinups += spinups
        account.spindowns += spindowns
        return wake_delay

    def outcome(self, duration: float, wake: bool) -> IdleOutcome:
        """Fresh :class:`IdleOutcome` for a gap of ``duration`` seconds.

        Always a new object — callers (the all-speed disk) mutate the
        wake fields in place.
        """
        bounds = self.bounds
        idx = bisect_left(bounds, duration)
        if idx & 1:
            if bounds[idx] == duration:
                # the downshift completes exactly at the gap end:
                # the walk treats this as the next residency segment
                idx += 1
            else:
                k = idx >> 1
                start = self.sh_start[k]
                shift_energy = self.sh_energy[k]
                frac = (duration - start) / self.sh_time[k]
                in_gap = shift_energy * frac
                out = IdleOutcome(
                    energy_j=self.sh_prefix[k] + in_gap,
                    mode_residency_s=dict(self.sh_pairs[k]),
                    transition_time_s=self.sh_ttime[k] + (duration - start),
                    transition_energy_j=self.sh_tenergy[k] + in_gap,
                    spindowns=k + 1,
                )
                if wake:
                    out.wake_delay_s = (
                        self.sh_end[k] - duration
                    ) + self.sh_spinup_t[k]
                    out.wake_energy_j = (
                        shift_energy * (1.0 - frac) + self.sh_spinup_e[k]
                    )
                    out.spinups = 1
                return out
        j = idx >> 1
        seconds = duration - self.res_cursor[j]
        energy = self.res_prefix[j]
        residency = dict(self.res_pairs[j])
        mode = self.res_mode[j]
        if seconds > 0:
            energy = energy + seconds * self.res_power[j]
            # the ladder never revisits a mode, so plain assignment
            residency[mode] = seconds
        out = IdleOutcome(
            energy_j=energy,
            mode_residency_s=residency,
            transition_time_s=self.res_ttime[j],
            transition_energy_j=self.res_tenergy[j],
            spindowns=j,
        )
        if wake and mode != 0:
            out.wake_delay_s = self.res_spinup_t[j]
            out.wake_energy_j = self.res_spinup_e[j]
            out.spinups = 1
        return out

    def energy(self, duration: float) -> float:
        """Gap + wake energy; mirrors the ``idle_energy`` walk."""
        bounds = self.bounds
        idx = bisect_left(bounds, duration)
        if idx & 1:
            if bounds[idx] == duration:
                idx += 1
            else:
                return self.sh_ie_total[idx >> 1]
        j = idx >> 1
        e = (
            self.res_prefix[j]
            + (duration - self.res_cursor[j]) * self.res_power[j]
        )
        if self.res_mode[j] != 0:
            e = e + self.res_spinup_e[j]
        return e

    def mode_after(self, elapsed: float) -> int:
        """Mode occupied after ``elapsed`` idle seconds (target mode
        while mid-transition)."""
        return self.res_mode[bisect_left(self.start_ts, elapsed)]


class PracticalDPM(DiskPowerManager):
    """Online threshold-based power management (Section 2.2).

    After the disk has been idle for the cumulative times returned by
    :meth:`EnergyEnvelope.practical_thresholds` it shifts down to the
    corresponding mode. With those thresholds the scheme is
    2-competitive with :class:`OracleDPM` in energy. A request arriving
    while the disk is below mode 0 pays the spin-up (and the remainder
    of any in-flight spin-down) as a response-time delay.

    Args:
        model: The disk power model.
        thresholds: Optional override, ``[(cumulative_idle_s, mode), ...]``
            strictly increasing in both components. Defaults to the
            2-competitive thresholds.
    """

    def __init__(
        self,
        model: PowerModel,
        thresholds: list[tuple[float, int]] | None = None,
    ) -> None:
        super().__init__(model)
        envelope = EnergyEnvelope(model)
        if thresholds is None:
            thresholds = envelope.practical_thresholds()
        self.thresholds = list(thresholds)
        self._steps = self._build_schedule(self.thresholds)
        self._table = _SegmentTable(self.model, 0, self._steps)
        self._from_tables: dict[int, _SegmentTable] = {}
        self._set_quick_idle()

    def _set_quick_idle(self) -> None:
        # Gaps ending at or before the first threshold never leave mode
        # 0 (bisect_left lands on residency segment 0), so the disk's
        # inline accounting applies.
        bounds = self._table.bounds
        self.quick_idle_limit = bounds[0] if bounds else float("inf")
        self.quick_idle_power_w = self._table.res_power[0]

    def _build_schedule(self, thresholds: list[tuple[float, int]]) -> list[_Step]:
        steps: list[_Step] = []
        prev_mode, prev_end = 0, 0.0
        for start_t, mode in thresholds:
            if mode <= prev_mode:
                raise ConfigurationError(
                    f"thresholds must descend the mode ladder, got mode "
                    f"{mode} after {prev_mode}"
                )
            if start_t < prev_end:
                raise ConfigurationError(
                    f"threshold at {start_t}s begins before the previous "
                    f"downshift completes at {prev_end}s"
                )
            shift_time = self.model.downshift_time(prev_mode, mode)
            shift_energy = self.model.downshift_energy(prev_mode, mode)
            steps.append(
                _Step(
                    mode=mode,
                    start_t=start_t,
                    shift_time=shift_time,
                    shift_energy=shift_energy,
                )
            )
            prev_mode, prev_end = mode, start_t + shift_time
        return steps

    def process_idle(self, duration: float, wake: bool = True) -> IdleOutcome:
        if duration < 0:
            raise ValueError(f"idle duration must be >= 0, got {duration}")
        return self._table.outcome(duration, wake)

    def account_idle(self, duration: float, wake, account) -> float:
        if duration < 0:
            raise ValueError(f"idle duration must be >= 0, got {duration}")
        return self._table.account_into(duration, wake, account)

    def _refresh_tables(self) -> None:
        """Rebuild the memo tables; subclasses that mutate the schedule
        (adaptive thresholds) must call this after changing ``_steps``."""
        self._table = _SegmentTable(self.model, 0, self._steps)
        self._from_tables.clear()
        self._set_quick_idle()

    def _table_for(self, start_mode: int) -> _SegmentTable:
        table = self._from_tables.get(start_mode)
        if table is None:
            steps = [s for s in self._steps if s.mode > start_mode]
            table = _SegmentTable(self.model, start_mode, steps)
            self._from_tables[start_mode] = table
        return table

    def _walk_process_idle(
        self, duration: float, wake: bool = True
    ) -> IdleOutcome:
        """Reference implementation: the incremental schedule walk.

        :meth:`process_idle` answers from the precomputed
        :class:`_SegmentTable`; this walk is kept (and exercised by a
        lockstep test) as the executable specification the table must
        match bit-for-bit.
        """
        if duration < 0:
            raise ValueError(f"idle duration must be >= 0, got {duration}")
        outcome = IdleOutcome()
        current_mode = 0
        cursor = 0.0  # cumulative idle time already accounted
        for step in self._steps:
            if duration <= step.start_t:
                break
            # residency in current_mode until the downshift begins
            outcome._add_residency(
                current_mode,
                step.start_t - cursor,
                self.model[current_mode].power_w,
            )
            cursor = step.start_t
            shift_end = step.start_t + step.shift_time
            if duration < shift_end:
                # request arrives mid-spin-down: the downshift completes,
                # then the disk spins straight back up.
                frac = (duration - step.start_t) / step.shift_time
                in_gap = step.shift_energy * frac
                remainder_t = shift_end - duration
                outcome.energy_j += in_gap
                outcome.transition_time_s += duration - step.start_t
                outcome.transition_energy_j += in_gap
                outcome.spindowns += 1
                if wake:
                    up = self.model[step.mode]
                    outcome.wake_delay_s = remainder_t + up.spinup_time_s
                    outcome.wake_energy_j = (
                        step.shift_energy * (1.0 - frac) + up.spinup_energy_j
                    )
                    outcome.spinups += 1
                return outcome
            # downshift completed inside the gap
            outcome.energy_j += step.shift_energy
            outcome.transition_time_s += step.shift_time
            outcome.transition_energy_j += step.shift_energy
            outcome.spindowns += 1
            current_mode = step.mode
            cursor = shift_end
        # gap ends while residing in current_mode
        outcome._add_residency(
            current_mode, duration - cursor, self.model[current_mode].power_w
        )
        if wake and current_mode != 0:
            up = self.model[current_mode]
            outcome.wake_delay_s = up.spinup_time_s
            outcome.wake_energy_j = up.spinup_energy_j
            outcome.spinups += 1
        return outcome

    def mode_after_idle(self, elapsed: float) -> int:
        if elapsed < 0:
            raise ValueError(f"elapsed must be >= 0, got {elapsed}")
        return self._table.mode_after(elapsed)

    def _walk_mode_after_idle(self, elapsed: float) -> int:
        """Reference walk for :meth:`mode_after_idle`."""
        if elapsed < 0:
            raise ValueError(f"elapsed must be >= 0, got {elapsed}")
        mode = 0
        for step in self._steps:
            if elapsed <= step.start_t:
                break
            mode = step.mode  # mid-transition reports the target mode
        return mode

    def process_idle_from(
        self, start_mode: int, duration: float, wake: bool = True
    ) -> IdleOutcome:
        """Reconstruct an idle gap that begins at ``start_mode``.

        Used by serve-at-all-speeds disks (DRPM style), which finish a
        request while still rotating at a reduced speed: the descent
        ladder continues from that mode — the disk resides there until
        the deeper thresholds (whose clocks are unchanged) fire. With
        ``start_mode == 0`` this is exactly :meth:`process_idle`.
        """
        if start_mode == 0:
            return self.process_idle(duration, wake=wake)
        if duration < 0:
            raise ValueError(f"idle duration must be >= 0, got {duration}")
        return self._table_for(start_mode).outcome(duration, wake)

    def _walk_process_idle_from(
        self, start_mode: int, duration: float, wake: bool = True
    ) -> IdleOutcome:
        """Reference walk for :meth:`process_idle_from` (see
        :meth:`_walk_process_idle`)."""
        if start_mode == 0:
            return self._walk_process_idle(duration, wake=wake)
        if duration < 0:
            raise ValueError(f"idle duration must be >= 0, got {duration}")
        outcome = IdleOutcome()
        current_mode = start_mode
        cursor = 0.0
        for step in self._steps:
            if step.mode <= start_mode:
                continue  # already at or below this rung
            if duration <= step.start_t:
                break
            outcome._add_residency(
                current_mode,
                step.start_t - cursor,
                self.model[current_mode].power_w,
            )
            cursor = step.start_t
            shift_time = self.model.downshift_time(current_mode, step.mode)
            shift_energy = self.model.downshift_energy(current_mode, step.mode)
            shift_end = step.start_t + shift_time
            if duration < shift_end:
                frac = (
                    (duration - step.start_t) / shift_time
                    if shift_time > 0
                    else 1.0
                )
                in_gap = shift_energy * frac
                outcome.energy_j += in_gap
                outcome.transition_time_s += duration - step.start_t
                outcome.transition_energy_j += in_gap
                outcome.spindowns += 1
                if wake:
                    up = self.model[step.mode]
                    outcome.wake_delay_s = (
                        shift_end - duration + up.spinup_time_s
                    )
                    outcome.wake_energy_j = (
                        shift_energy * (1.0 - frac) + up.spinup_energy_j
                    )
                    outcome.spinups += 1
                return outcome
            outcome.energy_j += shift_energy
            outcome.transition_time_s += shift_time
            outcome.transition_energy_j += shift_energy
            outcome.spindowns += 1
            current_mode = step.mode
            cursor = shift_end
        outcome._add_residency(
            current_mode, duration - cursor, self.model[current_mode].power_w
        )
        if wake and current_mode != 0:
            up = self.model[current_mode]
            outcome.wake_delay_s = up.spinup_time_s
            outcome.wake_energy_j = up.spinup_energy_j
            outcome.spinups += 1
        return outcome

    def mode_after_idle_from(self, start_mode: int, elapsed: float) -> int:
        """Mode occupied after ``elapsed`` idle seconds, starting at
        ``start_mode`` (see :meth:`process_idle_from`)."""
        if start_mode == 0:
            return self._table.mode_after(elapsed)
        return self._table_for(start_mode).mode_after(elapsed)

    def idle_energy(self, duration: float) -> float:
        """Closed-form gap+wake energy (hot path for OPG penalties).

        Answered from the precomputed segment table; bit-identical to
        :meth:`process_idle`'s ``total_energy_j`` (lockstep test).
        """
        if duration < 0:
            raise ValueError(f"idle duration must be >= 0, got {duration}")
        return self._table.energy(duration)

    def _walk_idle_energy(self, duration: float) -> float:
        """Reference walk for :meth:`idle_energy` (see
        :meth:`_walk_process_idle`)."""
        if duration < 0:
            raise ValueError(f"idle duration must be >= 0, got {duration}")
        model = self.model
        energy = 0.0
        mode = 0
        cursor = 0.0
        for step in self._steps:
            if duration <= step.start_t:
                break
            energy += (step.start_t - cursor) * model[mode].power_w
            shift_end = step.start_t + step.shift_time
            if duration < shift_end:
                # full downshift energy (partly as wake) + spin-up
                return (
                    energy
                    + step.shift_energy
                    + model[step.mode].spinup_energy_j
                )
            energy += step.shift_energy
            mode = step.mode
            cursor = shift_end
        energy += (duration - cursor) * model[mode].power_w
        if mode != 0:
            energy += model[mode].spinup_energy_j
        return energy
