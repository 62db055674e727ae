"""Simulation reports."""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from repro.power.accounting import EnergyAccount
from repro.units import KILO, MS_PER_S


@dataclass(frozen=True)
class ResponseStats:
    """Client-visible request latency distribution."""

    count: int
    mean_s: float
    median_s: float
    p95_s: float
    p99_s: float
    max_s: float

    @classmethod
    def from_samples(cls, samples) -> "ResponseStats":
        """The distribution of per-request response times, given as a
        list of floats or a float64 array (a batch run's folded
        samples, read without a copy); both give the same stats for
        the same values in the same order."""
        if len(samples) == 0:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        arr = np.asarray(samples)
        return cls(
            count=len(arr),
            mean_s=float(arr.mean()),
            median_s=float(np.percentile(arr, 50)),
            p95_s=float(np.percentile(arr, 95)),
            p99_s=float(np.percentile(arr, 99)),
            max_s=float(arr.max()),
        )

    def to_dict(self) -> dict:
        """JSON-safe dict."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ResponseStats":
        """Inverse of :meth:`to_dict`."""
        return cls(**data)


@dataclass(frozen=True)
class DiskReport:
    """Per-disk rollup for the Figure 7 analyses."""

    disk_id: int
    account: EnergyAccount
    mean_interarrival_s: float
    requests: int

    def time_breakdown(self) -> dict[str, float]:
        return self.account.time_breakdown()

    def to_dict(self) -> dict:
        """JSON-safe dict."""
        return {
            "disk_id": self.disk_id,
            "account": self.account.to_dict(),
            "mean_interarrival_s": self.mean_interarrival_s,
            "requests": self.requests,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DiskReport":
        """Inverse of :meth:`to_dict`."""
        return cls(
            disk_id=data["disk_id"],
            account=EnergyAccount.from_dict(data["account"]),
            mean_interarrival_s=data["mean_interarrival_s"],
            requests=data["requests"],
        )


@dataclass(frozen=True)
class SimulationResult:
    """Everything a run produced.

    ``total_energy_j`` is the quantity the paper's energy figures plot:
    disk array energy (all modes, transitions, and request service)
    plus any incremental log-device energy (WTDU).
    """

    label: str
    dpm: str
    duration_s: float
    disk_energy_j: float
    log_energy_j: float
    disks: list[DiskReport]
    response: ResponseStats
    cache_accesses: int
    cache_hits: int
    cache_misses: int
    cold_misses: int
    evictions: int
    disk_reads: int
    disk_writes: int
    spinups: int
    spindowns: int
    pending_dirty: int
    prefetch_admissions: int = 0
    prefetch_hits: int = 0
    #: Counters snapshot from a :class:`~repro.observe.sinks.MetricsSink`
    #: when the run was traced (``--trace-events``); ``None`` otherwise.
    trace_metrics: dict | None = None

    @property
    def prefetch_accuracy(self) -> float:
        """Fraction of prefetched blocks that were later demanded."""
        if not self.prefetch_admissions:
            return 0.0
        return self.prefetch_hits / self.prefetch_admissions

    @property
    def total_energy_j(self) -> float:
        return self.disk_energy_j + self.log_energy_j

    @property
    def hit_ratio(self) -> float:
        return (
            self.cache_hits / self.cache_accesses if self.cache_accesses else 0.0
        )

    @property
    def cold_miss_fraction(self) -> float:
        return (
            self.cold_misses / self.cache_accesses if self.cache_accesses else 0.0
        )

    def energy_relative_to(self, baseline: "SimulationResult") -> float:
        """Energy normalized to a baseline run (the Figure 6 bars)."""
        return self.total_energy_j / baseline.total_energy_j

    def savings_over(self, baseline: "SimulationResult") -> float:
        """Fractional energy savings vs a baseline (Figures 8 and 9)."""
        return 1.0 - self.energy_relative_to(baseline)

    def to_dict(self) -> dict:
        """JSON-safe dict: the full result, nested reports included."""
        data = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("disks", "response")
        }
        data["disks"] = [d.to_dict() for d in self.disks]
        data["response"] = self.response.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationResult":
        """Inverse of :meth:`to_dict` — exact round-trip through JSON."""
        kwargs = dict(data)
        kwargs["disks"] = [DiskReport.from_dict(d) for d in data["disks"]]
        kwargs["response"] = ResponseStats.from_dict(data["response"])
        kwargs.setdefault("trace_metrics", None)
        return cls(**kwargs)

    def summary(self) -> str:
        """One-paragraph human-readable report."""
        r = self.response
        return (
            f"{self.label} [{self.dpm} DPM]: "
            f"energy={self.total_energy_j / KILO:.1f} kJ "
            f"(disks {self.disk_energy_j / KILO:.1f}, log "
            f"{self.log_energy_j / KILO:.1f}); "
            f"hit ratio={self.hit_ratio:.1%} "
            f"(cold {self.cold_miss_fraction:.1%}); "
            f"mean response={r.mean_s * MS_PER_S:.2f} ms "
            f"(p95 {r.p95_s * MS_PER_S:.2f} ms); "
            f"spinups={self.spinups}; "
            f"disk I/O={self.disk_reads}R/{self.disk_writes}W"
        )
