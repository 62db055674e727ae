"""Epoch-based disk classification for the PA framework (Section 4).

Per epoch, per disk, the classifier tracks:

* the fraction of misses that are *cold* (first-ever accesses,
  detected with a Bloom filter) — a disk dominated by cold misses
  offers the cache no leverage, and
* the distribution of intervals between consecutive disk accesses
  (an :class:`~repro.core.histogram.IntervalHistogram`) — short,
  regular intervals leave no room to park the disk.

At each epoch boundary a disk is classified **priority** iff its
cold-miss fraction is below ``alpha`` *and* its ``p``-quantile interval
length ``x_p`` is at least the threshold ``T`` (the paper sets ``T`` to
the break-even time of the shallowest NAP mode). Everything else is
**regular**. The PA replacement wrapper keeps priority disks' blocks
longer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.core.bloom import BloomFilter
from repro.core.histogram import IntervalHistogram
from repro.errors import ConfigurationError
from repro.observe.events import DiskReclassified, EpochRollover
from repro.snapshot import expect_length, load_state, state_of
from repro.units import MINUTE


class DiskClass(Enum):
    REGULAR = 0
    PRIORITY = 1


@dataclass
class _DiskEpochStats:
    misses: int = 0
    cold_misses: int = 0
    histogram: IntervalHistogram = field(default_factory=IntervalHistogram)
    last_access: float | None = None


class DiskClassifier:
    """Tracks per-disk workload characteristics and classifies disks.

    Args:
        num_disks: Disks in the array.
        threshold_t: The interval-length threshold ``T`` (seconds);
            the paper uses the NAP1 break-even time.
        alpha: Maximum cold-miss fraction for the priority class.
        p: CDF probability at which ``x_p`` is evaluated.
        epoch_length_s: Epoch duration (paper: 15 minutes).
        bloom_bits / bloom_hashes: Bloom filter sizing.
    """

    def __init__(
        self,
        num_disks: int,
        threshold_t: float,
        alpha: float = 0.5,
        p: float = 0.8,
        epoch_length_s: float = 15 * MINUTE,
        bloom_bits: int = 1 << 22,
        bloom_hashes: int = 4,
    ) -> None:
        if num_disks < 1:
            raise ConfigurationError("num_disks must be >= 1")
        if not 0 <= alpha <= 1 or not 0 <= p <= 1:
            raise ConfigurationError("alpha and p must lie in [0, 1]")
        if epoch_length_s <= 0:
            raise ConfigurationError("epoch_length_s must be > 0")
        self.num_disks = num_disks
        self.threshold_t = threshold_t
        self.alpha = alpha
        self.p = p
        self.epoch_length_s = epoch_length_s
        self._bloom = BloomFilter(bloom_bits, bloom_hashes)
        self._stats = [_DiskEpochStats() for _ in range(num_disks)]
        # Interval tracking spans epochs: the gap between the last miss
        # of one epoch and the first of the next is still an interval.
        self._last_disk_access = [None] * num_disks
        self._classes = [DiskClass.REGULAR] * num_disks
        self._epoch_end: float | None = None
        self.epochs_completed = 0
        #: Optional event hook (see :mod:`repro.observe`); emits
        #: :class:`EpochRollover` / :class:`DiskReclassified` events.
        self.probe = None

    # -- feeding ------------------------------------------------------------

    def observe_miss(self, disk_id: int, key: tuple[int, int], time: float) -> bool:
        """Record a cache miss (i.e. a disk access). Returns cold-ness.

        Must be called in non-decreasing time order. Handles epoch
        rollover internally.
        """
        self._maybe_roll(time)
        stats = self._stats[disk_id]
        stats.misses += 1
        warm = self._bloom.check_and_add(key)
        if not warm:
            stats.cold_misses += 1
        last = self._last_disk_access[disk_id]
        if last is not None:
            stats.histogram.add(max(0.0, time - last))
        self._last_disk_access[disk_id] = time
        return not warm

    def observe_time(self, time: float) -> None:
        """Advance the epoch clock without recording a miss."""
        self._maybe_roll(time)

    def _maybe_roll(self, time: float) -> None:
        if self._epoch_end is None:
            self._epoch_end = time + self.epoch_length_s
            return
        while time >= self._epoch_end:
            self._reclassify(time, self._epoch_end)
            self._epoch_end += self.epoch_length_s

    # -- classification -----------------------------------------------------------

    def _reclassify(self, time: float = 0.0, boundary_s: float = 0.0) -> None:
        old_classes = list(self._classes) if self.probe is not None else None
        for disk_id, stats in enumerate(self._stats):
            if stats.misses == 0:
                # An untouched disk is trivially parkable: priority.
                self._classes[disk_id] = DiskClass.PRIORITY
            else:
                cold_fraction = stats.cold_misses / stats.misses
                x_p = stats.histogram.quantile(self.p)
                priority = (
                    cold_fraction <= self.alpha and x_p >= self.threshold_t
                )
                self._classes[disk_id] = (
                    DiskClass.PRIORITY if priority else DiskClass.REGULAR
                )
            stats.misses = 0
            stats.cold_misses = 0
            stats.histogram.reset()
        self.epochs_completed += 1
        if self.probe is not None:
            # Rollover is observed lazily at the first access past the
            # boundary, so the event's time is the observation time (to
            # keep the stream monotone); the nominal boundary rides in
            # ``boundary_s``.
            self.probe(EpochRollover(time, boundary_s, self.epochs_completed))
            for disk_id, (old, new) in enumerate(
                zip(old_classes, self._classes)
            ):
                if old != new:
                    self.probe(
                        DiskReclassified(time, disk_id, old.name, new.name)
                    )

    # -- snapshots (see repro.snapshot) -----------------------------------------

    def state_dict(self) -> dict:
        """The Bloom filter, each disk's epoch tallies and histogram,
        the cross-epoch last-access times, the classes, and the epoch
        clock."""
        stats = self._stats
        return {
            "bloom": state_of(self._bloom),
            "misses": [s.misses for s in stats],
            "cold_misses": [s.cold_misses for s in stats],
            "histograms": [state_of(s.histogram) for s in stats],
            "last_disk_access": list(self._last_disk_access),
            "classes": [c.value for c in self._classes],
            "epoch_end": self._epoch_end,
            "epochs_completed": self.epochs_completed,
        }

    def load_state_dict(self, state: dict) -> None:
        n = self.num_disks
        per_disk = {
            name: list(state[name])
            for name in (
                "misses",
                "cold_misses",
                "histograms",
                "last_disk_access",
                "classes",
            )
        }
        for name, values in per_disk.items():
            expect_length(f"disks of classifier {name}", values, n)
        load_state(self._bloom, state["bloom"])
        for disk_stats, misses, cold, histogram in zip(
            self._stats,
            per_disk["misses"],
            per_disk["cold_misses"],
            per_disk["histograms"],
        ):
            disk_stats.misses = int(misses)
            disk_stats.cold_misses = int(cold)
            load_state(disk_stats.histogram, histogram)
        self._last_disk_access = [
            None if t is None else float(t)
            for t in per_disk["last_disk_access"]
        ]
        self._classes = [DiskClass(value) for value in per_disk["classes"]]
        epoch_end = state["epoch_end"]
        self._epoch_end = None if epoch_end is None else float(epoch_end)
        self.epochs_completed = int(state["epochs_completed"])

    def classify(self, disk_id: int) -> DiskClass:
        """Current class of ``disk_id`` (as of the last epoch boundary)."""
        return self._classes[disk_id]

    @property
    def classes(self) -> list[DiskClass]:
        return list(self._classes)
