"""The PA (power-aware) replacement wrapper and PA-LRU (Section 4).

PA partitions the cache's blocks by the class of their home disk: a
*regular* sub-policy holds blocks of disks that cannot usefully be
parked, and a *priority* sub-policy holds blocks of disks with long,
skewed idle intervals and few cold misses. Eviction always drains the
regular side first, so priority disks see fewer misses, their idle
intervals stretch (super-linearly increasing DPM savings, Figure 4),
and they sleep through whole epochs.

The paper instantiates the idea over LRU (two LRU stacks, "PA-LRU") and
notes it applies to ARC, MQ, LIRS, etc. — here any policy factory can
be wrapped.
"""

from __future__ import annotations

from typing import Callable

from repro.cache.block import BlockKey, disk_of
from repro.cache.policies.base import ReplacementPolicy
from repro.cache.policies.lru import LRUPolicy
from repro.core.classifier import DiskClass, DiskClassifier
from repro.errors import PolicyError
from repro.snapshot import (
    load_state,
    pack_ints,
    pack_keys,
    state_of,
    unpack_ints,
    unpack_keys,
)

PolicyFactory = Callable[[], ReplacementPolicy]


class PowerAwarePolicy(ReplacementPolicy):
    """Wraps a base replacement policy with the PA disk-class split.

    Blocks are filed into the regular or priority sub-policy according
    to their disk's class *at insertion (or last access) time*; a
    reclassification migrates blocks lazily, on their next access —
    matching the paper's per-epoch behaviour without a stop-the-world
    rescan.

    Args:
        classifier: The epoch-based disk classifier (shared state:
            Bloom filter + histograms).
        base_factory: Builds each of the two sub-policies.
        name: Report label; defaults to ``PA-<base name>``.
    """

    def __init__(
        self,
        classifier: DiskClassifier,
        base_factory: PolicyFactory = LRUPolicy,
        name: str | None = None,
    ) -> None:
        self.classifier = classifier
        self._regular = base_factory()
        self._priority = base_factory()
        self._home: dict[BlockKey, ReplacementPolicy] = {}
        self.name = name or f"PA-{self._regular.name}"

    # -- helpers ---------------------------------------------------------

    def _target_for(self, key: BlockKey) -> ReplacementPolicy:
        cls = self.classifier.classify(disk_of(key))
        return self._priority if cls is DiskClass.PRIORITY else self._regular

    def _migrate(self, key: BlockKey, target: ReplacementPolicy, time: float) -> None:
        current = self._home[key]
        if current is target:
            return
        current.on_remove(key)
        target.on_insert(key, time)
        self._home[key] = target

    # -- policy contract ----------------------------------------------------

    def on_access(self, key: BlockKey, time: float, hit: bool) -> None:
        if hit:
            self.classifier.observe_time(time)
            target = self._target_for(key)
            if self._home.get(key) is not target:
                self._migrate(key, target, time)
            else:
                target.on_access(key, time, hit=True)
        else:
            # every miss is a disk access: feed the classifier
            self.classifier.observe_miss(disk_of(key), key, time)

    def on_insert(self, key: BlockKey, time: float) -> None:
        target = self._target_for(key)
        existing = self._home.get(key)
        if existing is not None:
            # pinned-victim re-insert
            existing.on_insert(key, time)
            return
        target.on_insert(key, time)
        self._home[key] = target

    def evict(self, time: float) -> BlockKey:
        """Evict from the regular side; fall back to priority."""
        source = self._regular if len(self._regular) else self._priority
        if not len(source):
            raise PolicyError("PA: evict with no resident blocks")
        key = source.evict(time)
        del self._home[key]
        return key

    def on_remove(self, key: BlockKey) -> None:
        home = self._home.pop(key, None)
        if home is not None:
            home.on_remove(key)

    def __len__(self) -> int:
        return len(self._regular) + len(self._priority)

    def state_dict(self) -> dict:
        """The classifier, both sub-policies, and each block's home
        side (1 = priority)."""
        priority = self._priority
        return {
            "classifier": state_of(self.classifier),
            "regular": state_of(self._regular),
            "priority": state_of(priority),
            "home": pack_keys(self._home),
            "home_priority": pack_ints(
                side is priority for side in self._home.values()
            ),
        }

    def load_state_dict(self, state: dict) -> None:
        keys = unpack_keys(state["home"])
        sides = unpack_ints(state["home_priority"])
        if len(sides) != len(keys):
            raise ValueError(f"{len(keys)} blocks but {len(sides)} sides")
        load_state(self.classifier, state["classifier"])
        load_state(self._regular, state["regular"])
        load_state(self._priority, state["priority"])
        homes = (self._regular, self._priority)
        self._home = {key: homes[side] for key, side in zip(keys, sides)}


def make_pa_lru(
    num_disks: int,
    threshold_t: float,
    alpha: float = 0.5,
    p: float = 0.8,
    epoch_length_s: float = 900.0,
) -> PowerAwarePolicy:
    """Build the paper's PA-LRU.

    Args:
        num_disks: Disks in the array.
        threshold_t: Interval threshold ``T``; the paper uses the
            break-even time of the shallowest NAP mode
            (``EnergyEnvelope.breakeven_time(1)``).
        alpha: Cold-miss fraction cutoff.
        p: CDF probability for ``x_p``.
        epoch_length_s: Epoch length (paper: 15 minutes).
    """
    classifier = DiskClassifier(
        num_disks=num_disks,
        threshold_t=threshold_t,
        alpha=alpha,
        p=p,
        epoch_length_s=epoch_length_s,
    )
    return PowerAwarePolicy(classifier, LRUPolicy, name="PA-LRU")
