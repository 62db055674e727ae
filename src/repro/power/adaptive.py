"""Adaptive threshold DPM (the paper's related-work group 1).

The paper's Section 7 surveys single-disk schemes that *adapt* their
spin-down thresholds to the workload (Douglis et al., Golding et al.,
Krishnan et al., Helmbold et al.). This module implements a compact
representative of that family so it can be compared against the static
2-competitive ladder the paper uses:

After every idle gap the manager scores its last decision:

* **too eager** — it started descending but the gap ended before the
  parking paid for itself (the gap was shorter than the first
  threshold's break-even): the thresholds stretch by ``grow``.
* **too lazy** — the gap ran past the deepest threshold (the disk
  clearly could have parked sooner): the thresholds shrink by
  ``shrink``.

The scale factor is clamped to ``[min_scale, max_scale]`` around the
2-competitive ladder, so the scheme can never drift arbitrarily far
from the competitive baseline — adaptivity buys regret on stable
workloads for faster reactions on shifting ones.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.power.dpm import DiskPowerManager, IdleOutcome, PracticalDPM
from repro.power.envelope import EnergyEnvelope
from repro.power.modes import PowerModel


class AdaptiveThresholdDPM(PracticalDPM):
    """Threshold DPM with multiplicative threshold adaptation.

    Args:
        model: Disk power model.
        grow: Multiplier applied after a too-eager gap (> 1).
        shrink: Multiplier applied after a too-lazy gap (< 1).
        min_scale / max_scale: Clamp around the 2-competitive ladder.
    """

    def __init__(
        self,
        model: PowerModel,
        grow: float = 1.25,
        shrink: float = 0.9,
        min_scale: float = 0.5,
        max_scale: float = 2.0,
    ) -> None:
        if not grow > 1.0:
            raise ConfigurationError(f"grow must be > 1, got {grow}")
        if not 0.0 < shrink < 1.0:
            raise ConfigurationError(f"shrink must be in (0, 1), got {shrink}")
        if not 0.0 < min_scale <= 1.0 <= max_scale:
            raise ConfigurationError(
                "need min_scale <= 1 <= max_scale bracketing the baseline"
            )
        super().__init__(model)
        self._base_thresholds = list(self.thresholds)
        self.grow = grow
        self.shrink = shrink
        self.min_scale = min_scale
        self.max_scale = max_scale
        self.scale = 1.0
        self.adaptations = 0
        # the break-even of the shallowest mode: the "was it worth it"
        # yardstick for scoring a descent
        self._first_breakeven = EnergyEnvelope(model).breakeven_time(1)

    def _rescale(self, factor: float) -> None:
        new_scale = min(
            self.max_scale, max(self.min_scale, self.scale * factor)
        )
        if new_scale == self.scale:
            return
        self._apply_scale(new_scale)
        self.adaptations += 1

    def _apply_scale(self, scale: float) -> None:
        self.scale = scale
        self.thresholds = [
            (t * self.scale, mode) for t, mode in self._base_thresholds
        ]
        self._steps = self._build_schedule(self.thresholds)
        self._refresh_tables()

    def state_dict(self) -> dict:
        """The threshold scale (the ladder rebuilds from it)."""
        return {"scale": self.scale, "adaptations": self.adaptations}

    def load_state_dict(self, state: dict) -> None:
        scale = float(state["scale"])
        if scale != self.scale:
            self._apply_scale(scale)
        self.adaptations = int(state["adaptations"])

    def process_idle(self, duration: float, wake: bool = True) -> IdleOutcome:
        outcome = super().process_idle(duration, wake=wake)
        if not wake:
            return outcome  # trailing gap: nothing left to adapt for
        first_threshold = self.thresholds[0][0]
        deepest_threshold = self.thresholds[-1][0]
        if outcome.spindowns and duration < first_threshold + self._first_breakeven:
            # we paid a descent that could not amortize: back off
            self._rescale(self.grow)
        elif duration > 2.0 * deepest_threshold:
            # long gap wasted at shallow modes: lean in
            self._rescale(self.shrink)
        return outcome

    # PracticalDPM's memoized account_idle would skip the adaptation
    # hook above; route through process_idle instead. (The disk's
    # quick-idle shortcut remains safe: sub-threshold gaps have no
    # spindowns and cannot trigger either rescale rule.)
    account_idle = DiskPowerManager.account_idle
