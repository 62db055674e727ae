"""Per-disk energy and time bookkeeping.

:class:`EnergyAccount` accumulates everything a disk does over a run —
residency per power mode, transition overheads, and request service
(seek / rotation / transfer) — and can render the Figure 7a style
percentage-of-time breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.power.dpm import IdleOutcome


@dataclass(slots=True)
class EnergyAccount:
    """Accumulated energy/time ledger for one disk (or a whole array)."""

    mode_time_s: dict[int, float] = field(default_factory=dict)
    mode_energy_j: dict[int, float] = field(default_factory=dict)
    transition_time_s: float = 0.0
    transition_energy_j: float = 0.0
    spinups: int = 0
    spindowns: int = 0
    service_time_s: float = 0.0
    service_energy_j: float = 0.0
    requests: int = 0

    # -- recording -------------------------------------------------------

    def add_idle(self, outcome: IdleOutcome) -> None:
        """Fold one idle-gap outcome (including its wake cost) in."""
        residency = outcome.mode_residency_s
        if len(residency) == 1:
            # Single-mode gap (the overwhelmingly common short gap):
            # the proportional attribution below reduces to ``* 1.0``,
            # so the whole residency energy goes to the one mode.
            ((mode, seconds),) = residency.items()
            self.mode_time_s[mode] = self.mode_time_s.get(mode, 0.0) + seconds
            self.mode_energy_j[mode] = self.mode_energy_j.get(mode, 0.0) + (
                outcome.energy_j - outcome.transition_energy_j
            )
        else:
            for mode, seconds in residency.items():
                self.add_mode_residency(mode, seconds, 0.0)
            # Residency energy = gap energy minus in-gap transition energy.
            residency_energy = outcome.energy_j - outcome.transition_energy_j
            # Attribute residency energy proportionally to time per mode.
            total_res = sum(residency.values())
            if total_res > 0:
                for mode, seconds in residency.items():
                    self.mode_energy_j[mode] = (
                        self.mode_energy_j.get(mode, 0.0)
                        + residency_energy * (seconds / total_res)
                    )
        self.transition_time_s += outcome.transition_time_s + outcome.wake_delay_s
        self.transition_energy_j += (
            outcome.transition_energy_j + outcome.wake_energy_j
        )
        self.spinups += outcome.spinups
        self.spindowns += outcome.spindowns

    def add_mode_residency(self, mode: int, seconds: float, energy_j: float) -> None:
        """Record ``seconds`` of residency in ``mode`` costing ``energy_j``."""
        if seconds <= 0:
            return
        self.mode_time_s[mode] = self.mode_time_s.get(mode, 0.0) + seconds
        if energy_j:
            self.mode_energy_j[mode] = (
                self.mode_energy_j.get(mode, 0.0) + energy_j
            )

    def add_service(self, seconds: float, energy_j: float) -> None:
        """Record one serviced request (seek + rotation + transfer)."""
        self.service_time_s += seconds
        self.service_energy_j += energy_j
        self.requests += 1

    # -- queries ----------------------------------------------------------

    @property
    def total_energy_j(self) -> float:
        return (
            sum(self.mode_energy_j.values())
            + self.transition_energy_j
            + self.service_energy_j
        )

    @property
    def total_time_s(self) -> float:
        return (
            sum(self.mode_time_s.values())
            + self.transition_time_s
            + self.service_time_s
        )

    def time_breakdown(self) -> dict[str, float]:
        """Fraction of total time per activity (Figure 7a).

        Keys are ``mode:<index>`` for residencies, plus ``transition``
        (spin-ups/downs) and ``service``. Fractions sum to 1 when any
        time has been recorded.
        """
        total = self.total_time_s
        if total <= 0:
            return {}
        breakdown = {
            f"mode:{mode}": t / total for mode, t in sorted(self.mode_time_s.items())
        }
        breakdown["transition"] = self.transition_time_s / total
        breakdown["service"] = self.service_time_s / total
        return breakdown

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe dict (mode keys become strings)."""
        return {
            "mode_time_s": {str(m): t for m, t in self.mode_time_s.items()},
            "mode_energy_j": {
                str(m): e for m, e in self.mode_energy_j.items()
            },
            "transition_time_s": self.transition_time_s,
            "transition_energy_j": self.transition_energy_j,
            "spinups": self.spinups,
            "spindowns": self.spindowns,
            "service_time_s": self.service_time_s,
            "service_energy_j": self.service_energy_j,
            "requests": self.requests,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EnergyAccount":
        """Inverse of :meth:`to_dict` (restores int mode keys)."""
        return cls(
            mode_time_s={
                int(m): t for m, t in data["mode_time_s"].items()
            },
            mode_energy_j={
                int(m): e for m, e in data["mode_energy_j"].items()
            },
            transition_time_s=data["transition_time_s"],
            transition_energy_j=data["transition_energy_j"],
            spinups=data["spinups"],
            spindowns=data["spindowns"],
            service_time_s=data["service_time_s"],
            service_energy_j=data["service_energy_j"],
            requests=data["requests"],
        )

    def state_dict(self) -> dict:
        return self.to_dict()

    def load_state_dict(self, state: dict) -> None:
        loaded = {
            f.name: (
                {int(m): float(v) for m, v in state[f.name].items()}
                if f.name.startswith("mode_")
                else type(getattr(self, f.name))(state[f.name])
            )
            for f in fields(self)
        }
        for name, value in loaded.items():
            setattr(self, name, value)

    def merge(self, other: "EnergyAccount") -> None:
        """Fold another account into this one (array-level totals)."""
        for mode, t in other.mode_time_s.items():
            self.mode_time_s[mode] = self.mode_time_s.get(mode, 0.0) + t
        for mode, e in other.mode_energy_j.items():
            self.mode_energy_j[mode] = self.mode_energy_j.get(mode, 0.0) + e
        self.transition_time_s += other.transition_time_s
        self.transition_energy_j += other.transition_energy_j
        self.spinups += other.spinups
        self.spindowns += other.spindowns
        self.service_time_s += other.service_time_s
        self.service_energy_j += other.service_energy_j
        self.requests += other.requests
