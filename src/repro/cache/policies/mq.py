"""MQ — the Multi-Queue replacement algorithm (Zhou, Philbin & Li,
USENIX'01).

Designed for exactly the second-level storage caches this paper
targets; cited by the paper as combinable with the PA technique. Blocks
are filed into ``m`` LRU queues by access frequency (queue
``min(log2(f), m-1)``); a block that stays untouched past ``life_time``
accesses is demoted one queue. Evicted identities go to the ``q_out``
ghost so a quickly-refetched block resumes its old frequency.

Logical time here is the access count — the units the original paper
uses for its lifeTime parameter.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.cache.block import BlockKey
from repro.cache.policies.base import ReplacementPolicy
from repro.errors import ConfigurationError, PolicyError
from repro.snapshot import (
    expect_length,
    pack_ints,
    pack_keys,
    unpack_ints,
    unpack_keys,
)


@dataclass(slots=True)
class _Entry:
    frequency: int
    expire: int  # logical (access-count) expiry for demotion
    queue: int


class MQPolicy(ReplacementPolicy):
    """Multi-Queue replacement.

    Args:
        capacity: Cache size in blocks (bounds the ghost queue).
        num_queues: Number of frequency levels (the paper's ``m``).
        life_time: Accesses a block may sit unreferenced before being
            demoted one level. Defaults to ``capacity`` accesses, a
            reasonable stand-in for the paper's peak temporal distance.
        qout_factor: Ghost capacity as a multiple of ``capacity``.
    """

    name = "MQ"

    def __init__(
        self,
        capacity: int,
        num_queues: int = 8,
        life_time: int | None = None,
        qout_factor: int = 4,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError(f"MQ capacity must be >= 1, got {capacity}")
        if num_queues < 1:
            raise ConfigurationError("MQ needs at least one queue")
        self.m = num_queues
        self.life_time = life_time if life_time is not None else capacity
        self.qout_capacity = max(1, qout_factor * capacity)
        self._queues: list[OrderedDict[BlockKey, None]] = [
            OrderedDict() for _ in range(num_queues)
        ]
        self._entries: dict[BlockKey, _Entry] = {}
        self._qout: OrderedDict[BlockKey, int] = OrderedDict()  # key -> freq
        self._now = 0  # logical time in accesses
        self._size = 0

    # -- internals ----------------------------------------------------------

    def _level(self, frequency: int) -> int:
        return min(frequency.bit_length() - 1, self.m - 1)

    def _enqueue(self, key: BlockKey, entry: _Entry) -> None:
        entry.queue = self._level(entry.frequency)
        entry.expire = self._now + self.life_time
        self._queues[entry.queue][key] = None

    def _adjust(self) -> None:
        """Demote expired queue heads one level (the MQ Adjust step)."""
        for level in range(self.m - 1, 0, -1):
            queue = self._queues[level]
            if not queue:
                continue
            head = next(iter(queue))
            entry = self._entries[head]
            if entry.expire < self._now:
                del queue[head]
                entry.queue = level - 1
                entry.expire = self._now + self.life_time
                self._queues[level - 1][head] = None

    # -- policy contract -------------------------------------------------------

    def on_access(self, key: BlockKey, time: float, hit: bool) -> None:
        self._now += 1
        if hit:
            entry = self._entries.get(key)
            if entry is None:
                raise PolicyError(f"MQ: hit on untracked block {key}")
            del self._queues[entry.queue][key]
            entry.frequency += 1
            self._enqueue(key, entry)
        self._adjust()

    def on_insert(self, key: BlockKey, time: float) -> None:
        if key in self._entries:
            # pinned-victim re-insert: refresh its position
            entry = self._entries[key]
            del self._queues[entry.queue][key]
            self._enqueue(key, entry)
            return
        frequency = self._qout.pop(key, 0) + 1
        entry = _Entry(frequency=frequency, expire=0, queue=0)
        self._entries[key] = entry
        self._enqueue(key, entry)
        self._size += 1

    def evict(self, time: float) -> BlockKey:
        for queue in self._queues:
            if queue:
                key, _ = queue.popitem(last=False)
                entry = self._entries.pop(key)
                self._size -= 1
                self._qout[key] = entry.frequency
                if len(self._qout) > self.qout_capacity:
                    self._qout.popitem(last=False)
                return key
        raise PolicyError("MQ: evict with no resident blocks")

    def on_remove(self, key: BlockKey) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._queues[entry.queue].pop(key, None)
            self._size -= 1

    def __len__(self) -> int:
        return self._size

    def state_dict(self) -> dict:
        """Queue order, each entry's (frequency, expire, queue), the
        ``q_out`` ghost with its remembered frequencies, and the
        logical clock."""
        entries = self._entries
        return {
            "queues": [pack_keys(queue) for queue in self._queues],
            "entries": pack_keys(entries),
            "entry_fields": pack_ints(
                field
                for e in entries.values()
                for field in (e.frequency, e.expire, e.queue)
            ),
            "qout": pack_keys(self._qout),
            "qout_frequency": pack_ints(self._qout.values()),
            "now": self._now,
        }

    def load_state_dict(self, state: dict) -> None:
        queues = [
            OrderedDict.fromkeys(unpack_keys(text)) for text in state["queues"]
        ]
        expect_length("MQ queues", queues, self.m)
        keys = unpack_keys(state["entries"])
        fields = unpack_ints(state["entry_fields"])
        if len(fields) != 3 * len(keys):
            raise ValueError(f"{len(keys)} entries but {len(fields)} fields")
        entries = {
            key: _Entry(*fields[3 * i : 3 * i + 3])
            for i, key in enumerate(keys)
        }
        qout_keys = unpack_keys(state["qout"])
        qout_freq = unpack_ints(state["qout_frequency"])
        if len(qout_freq) != len(qout_keys):
            raise ValueError(
                f"{len(qout_keys)} ghosts but {len(qout_freq)} frequencies"
            )
        self._now = int(state["now"])
        self._queues = queues
        self._entries = entries
        self._qout = OrderedDict(zip(qout_keys, qout_freq))
        self._size = len(entries)
