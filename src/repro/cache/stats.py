"""Cache hit/miss statistics."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.snapshot import pack_keys, unpack_keys


@dataclass(slots=True)
class CacheStats:
    """Counters maintained by :class:`~repro.cache.cache.StorageCache`.

    ``cold_misses`` counts first-ever accesses to a block (tracked
    exactly with a set — the online PA policy uses a Bloom filter
    instead, as the paper does, but the *report* should be exact).
    """

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    cold_misses: int = 0
    read_accesses: int = 0
    write_accesses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    prefetch_admissions: int = 0
    prefetch_hits: int = 0
    _seen: set = field(default_factory=set, repr=False)

    def record_access(self, key, hit: bool, is_write: bool) -> None:
        self.accesses += 1
        if is_write:
            self.write_accesses += 1
        else:
            self.read_accesses += 1
        if hit:
            self.hits += 1
            return
        self.misses += 1
        if key not in self._seen:
            self.cold_misses += 1
            self._seen.add(key)

    def state_dict(self) -> dict:
        """The counters plus every block ever seen (sorted, so equal
        states snapshot to equal bytes)."""
        state = {name: getattr(self, name) for name in _COUNTERS}
        state["seen"] = pack_keys(sorted(self._seen))
        return state

    def load_state_dict(self, state: dict) -> None:
        counters = {name: int(state[name]) for name in _COUNTERS}
        self._seen = set(unpack_keys(state["seen"]))
        for name, value in counters.items():
            setattr(self, name, value)

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def cold_miss_fraction(self) -> float:
        """Cold misses as a fraction of all accesses (Section 5.2 stat)."""
        return self.cold_misses / self.accesses if self.accesses else 0.0


#: The integer fields of :class:`CacheStats` (every field but ``_seen``).
_COUNTERS = tuple(f.name for f in fields(CacheStats) if f.name != "_seen")
