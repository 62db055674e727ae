"""OPG's optimized implementation vs a naive reference.

The production OPG uses per-disk timelines, range re-evaluation, and a
stamped lazy min-heap. This module re-implements the algorithm the
slow, obvious way — recompute every resident block's penalty from
scratch at every eviction — and asserts both produce *identical miss
sequences* on randomized multi-disk workloads. Any divergence means the
incremental bookkeeping (stamps, gap splits, eviction-time det-miss
insertion) broke.
"""

import bisect
import math
import random

import pytest

from repro.cache.policies.base import OfflinePolicy
from repro.core.energy_optimal import simulate_misses
from repro.core.opg import OPGPolicy
from repro.power.dpm import OracleDPM, PracticalDPM
from repro.power.specs import build_power_model

_INF = math.inf


class NaiveOPG(OfflinePolicy):
    """Textbook OPG: full penalty recomputation at every eviction."""

    name = "NaiveOPG"

    def __init__(self, energy_fn, theta=0.0, tail_s=60.0):
        super().__init__()
        self._energy = energy_fn
        self.theta = theta
        self.tail_s = tail_s
        self._resident: dict = {}  # key -> next access time
        self._last_access: dict = {}
        self._known: dict[int, list[float]] = {}  # disk -> sorted times

    def prepare(self, accesses):
        accesses = list(accesses)
        super().prepare(accesses)
        end = accesses[-1][0] if accesses else 0.0
        self._end = end + self.tail_s
        self._known = {}
        seen = set()
        for time, key in accesses:
            if key not in seen:  # a block's first access always misses
                seen.add(key)
                self._insert_known(key[0], time)

    def _insert_known(self, disk, time):
        times = self._known.setdefault(disk, [0.0])
        i = bisect.bisect_left(times, time)
        if i >= len(times) or times[i] != time:
            times.insert(i, time)

    def _penalty(self, key, nt):
        if nt == _INF:
            return 0.0
        times = self._known.get(key[0], [0.0])
        i = bisect.bisect_left(times, nt)
        if i < len(times) and times[i] == nt:
            return 0.0
        leader = times[i - 1] if i > 0 else 0.0
        follower = times[i] if i < len(times) else self._end
        e = self._energy
        lead, follow = nt - leader, max(0.0, follower - nt)
        return max(0.0, e(lead) + e(follow) - e(lead + follow))

    def on_access(self, key, time, hit):
        i = self._advance(key)
        self._last_access[key] = i
        if hit:
            self._resident[key] = self._next_time[i]
        else:
            self._insert_known(key[0], time)

    def on_insert(self, key, time):
        if key in self._resident:
            return
        i = self._last_access[key]
        self._resident[key] = self._next_time[i]

    def evict(self, time):
        best_key, best = None, None
        for key, nt in self._resident.items():
            penalty = max(self._penalty(key, nt), self.theta)
            rank = (penalty, -nt if nt != _INF else -_INF, key)
            if best is None or rank < best:
                best, best_key = rank, key
        nt = self._resident.pop(best_key)
        if nt != _INF:
            self._insert_known(best_key[0], nt)
        return best_key

    def on_remove(self, key):
        nt = self._resident.pop(key, None)
        if nt is not None and nt != _INF:
            self._insert_known(key[0], nt)

    def note_disk_activity(self, disk_id, time):
        if self._prepared:
            self._insert_known(disk_id, time)

    def __len__(self):
        return len(self._resident)


def random_workload(rng, n=120, disks=3, blocks=10):
    accesses = []
    t = 0.0
    for _ in range(n):
        t += rng.uniform(0.1, 8.0)
        if rng.random() < 0.2:
            t += rng.uniform(10.0, 120.0)  # occasional long lull
        accesses.append((t, (rng.randrange(disks), rng.randrange(blocks))))
    return accesses


@pytest.fixture(scope="module")
def energy_fns():
    model = build_power_model()
    return {
        "oracle": OracleDPM(model).idle_energy,
        "practical": PracticalDPM(model).idle_energy,
    }


@pytest.mark.parametrize("dpm", ["oracle", "practical"])
@pytest.mark.parametrize("capacity", [2, 4, 6])
def test_optimized_matches_naive(energy_fns, dpm, capacity):
    energy_fn = energy_fns[dpm]
    for seed in range(8):
        rng = random.Random(seed)
        accesses = random_workload(rng)
        fast = simulate_misses(
            list(accesses), capacity, OPGPolicy(energy_fn, tail_s=60.0)
        )
        slow = simulate_misses(
            list(accesses), capacity, NaiveOPG(energy_fn, tail_s=60.0)
        )
        assert fast == slow, (dpm, capacity, seed)


@pytest.mark.parametrize("theta", [0.0, 25.0, 200.0])
def test_theta_agreement(energy_fns, theta):
    energy_fn = energy_fns["practical"]
    for seed in range(4):
        rng = random.Random(100 + seed)
        accesses = random_workload(rng, n=90)
        fast = simulate_misses(
            list(accesses), 3, OPGPolicy(energy_fn, theta=theta, tail_s=60.0)
        )
        slow = simulate_misses(
            list(accesses), 3, NaiveOPG(energy_fn, theta=theta, tail_s=60.0)
        )
        assert fast == slow, (theta, seed)
