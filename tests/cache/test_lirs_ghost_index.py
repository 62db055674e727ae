"""Differential tests for LIRS's ghost index.

``_ReferenceLIRS`` below is the LIRS policy as it was before the ghost
index, kept verbatim: its ``_limit_ghosts`` copies the stack and scans
it bottom-up for ghosts. :class:`~repro.cache.policies.lirs.LIRSPolicy`
finds the same bottom-most ghost through a lazily invalidated min-heap
of push stamps. Random op sequences drive both side by side — hits,
misses, evictions, ``on_remove``, pinned victims set aside and
re-inserted — and after every op their whole observable state must be
equal. Kinds are compared by ``.name``, so the check still holds if the
reference is ever loaded with its own copy of the ``_Kind`` enum.
"""

import random
from collections import OrderedDict

import pytest

from repro.cache.block import BlockKey
from repro.cache.policies.base import ReplacementPolicy
from repro.cache.policies.lirs import GHOST_HEAP_SLACK, LIRSPolicy, _Kind
from repro.core.classifier import DiskClass
from repro.core.pa import PowerAwarePolicy
from repro.errors import ConfigurationError, PolicyError


class _ReferenceLIRS(ReplacementPolicy):
    """LIRS replacement.

    Args:
        capacity: Cache size in blocks.
        hir_fraction: Fraction of the cache reserved for resident HIR
            blocks (the original paper suggests ~1%).
        ghost_factor: Bound on non-resident (ghost) stack entries, as a
            multiple of capacity.
    """

    name = "LIRS"

    def __init__(
        self,
        capacity: int,
        hir_fraction: float = 0.01,
        ghost_factor: int = 2,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"LIRS capacity must be >= 1, got {capacity}"
            )
        self.l_hirs = max(1, int(capacity * hir_fraction))
        self.l_lirs = max(1, capacity - self.l_hirs)
        self.ghost_capacity = max(capacity * ghost_factor, 16)
        self._kind: dict[BlockKey, _Kind] = {}
        self._stack: OrderedDict[BlockKey, None] = OrderedDict()  # S
        self._queue: OrderedDict[BlockKey, None] = OrderedDict()  # Q
        self._lir_count = 0
        self._resident = 0
        self._ghosts = 0

    # -- internals -----------------------------------------------------------

    def _stack_push(self, key: BlockKey) -> None:
        self._stack[key] = None
        self._stack.move_to_end(key)

    def _prune(self) -> None:
        """Pop the stack bottom until it is a LIR block."""
        while self._stack:
            bottom = next(iter(self._stack))
            kind = self._kind.get(bottom)
            if kind is _Kind.LIR:
                return
            del self._stack[bottom]
            if kind is _Kind.HIR_GHOST:
                del self._kind[bottom]
                self._ghosts -= 1
            # HIR_RESIDENT blocks stay tracked via Q.

    def _demote_bottom_lir(self) -> None:
        """Turn the stack's bottom LIR block into a resident HIR block."""
        bottom = next(iter(self._stack))
        del self._stack[bottom]
        self._kind[bottom] = _Kind.HIR_RESIDENT
        self._queue[bottom] = None
        self._lir_count -= 1
        self._prune()

    def _limit_ghosts(self) -> None:
        if self._ghosts <= self.ghost_capacity:
            return
        for key in list(self._stack):
            if self._kind.get(key) is _Kind.HIR_GHOST:
                del self._stack[key]
                del self._kind[key]
                self._ghosts -= 1
                if self._ghosts <= self.ghost_capacity:
                    break
        self._prune()

    # -- policy contract ---------------------------------------------------------

    def on_access(self, key: BlockKey, time: float, hit: bool) -> None:
        if not hit:
            return  # classification happens in on_insert
        kind = self._kind.get(key)
        if kind is _Kind.LIR:
            was_bottom = next(iter(self._stack)) == key
            self._stack_push(key)
            if was_bottom:
                self._prune()
        elif kind is _Kind.HIR_RESIDENT:
            if key in self._stack:
                # low IRR proven: promote to LIR
                self._kind[key] = _Kind.LIR
                self._lir_count += 1
                self._stack_push(key)
                self._queue.pop(key, None)
                if self._lir_count > self.l_lirs:
                    self._demote_bottom_lir()
            else:
                # long IRR: stays HIR, gets a fresh stack entry
                self._stack_push(key)
                self._queue.move_to_end(key)
        else:
            raise PolicyError(f"LIRS: hit on untracked block {key}")

    def on_insert(self, key: BlockKey, time: float) -> None:
        kind = self._kind.get(key)
        if kind in (_Kind.LIR, _Kind.HIR_RESIDENT):
            # pinned-victim re-insert; already tracked as resident
            return
        self._resident += 1
        if kind is _Kind.HIR_GHOST:
            # reuse within stack depth: becomes LIR
            self._ghosts -= 1
            self._kind[key] = _Kind.LIR
            self._lir_count += 1
            self._stack_push(key)
            if self._lir_count > self.l_lirs:
                self._demote_bottom_lir()
            return
        if self._lir_count < self.l_lirs:
            # cold cache: fill the LIR partition directly
            self._kind[key] = _Kind.LIR
            self._lir_count += 1
            self._stack_push(key)
            return
        self._kind[key] = _Kind.HIR_RESIDENT
        self._stack_push(key)
        self._queue[key] = None
        self._limit_ghosts()

    def evict(self, time: float) -> BlockKey:
        if self._queue:
            key, _ = self._queue.popitem(last=False)
            if key in self._stack:
                self._kind[key] = _Kind.HIR_GHOST
                self._ghosts += 1
            else:
                del self._kind[key]
            self._resident -= 1
            return key
        # Degenerate case: everything is LIR — evict the stack bottom.
        for key in self._stack:
            if self._kind.get(key) is _Kind.LIR:
                del self._stack[key]
                del self._kind[key]
                self._lir_count -= 1
                self._resident -= 1
                self._prune()
                return key
        raise PolicyError("LIRS: evict with no resident blocks")

    def on_remove(self, key: BlockKey) -> None:
        kind = self._kind.get(key)
        if kind is _Kind.LIR:
            self._stack.pop(key, None)
            del self._kind[key]
            self._lir_count -= 1
            self._resident -= 1
            self._prune()
        elif kind is _Kind.HIR_RESIDENT:
            self._queue.pop(key, None)
            if key in self._stack:
                self._kind[key] = _Kind.HIR_GHOST
                self._ghosts += 1
            else:
                del self._kind[key]
            self._resident -= 1

    def __len__(self) -> int:
        return self._resident


# -- drivers ------------------------------------------------------------------

DISKS = 3
PIN_RATE = 0.1


def lirs_state(policy) -> tuple:
    """Everything a LIRS instance exposes that eviction order depends on.

    ``_resident`` is the counter ``len()`` returns, read raw: once the
    LIR set has been emptied by removals it can go negative (see
    :func:`test_removing_the_last_lir_block_keeps_victims_resident`),
    and both implementations must agree even then.
    """
    return (
        list(policy._stack),
        list(policy._queue),
        {key: kind.name for key, kind in policy._kind.items()},
        policy._ghosts,
        policy._lir_count,
        policy._resident,
    )


def pa_state(policy: PowerAwarePolicy) -> tuple:
    return (
        lirs_state(policy._regular),
        lirs_state(policy._priority),
        {
            key: "priority" if home is policy._priority else "regular"
            for key, home in policy._home.items()
        },
    )


class FlipClassifier:
    """Stand-in PA classifier whose disk classes the test flips."""

    def __init__(self) -> None:
        self.priority: set[int] = set()

    def classify(self, disk_id: int) -> DiskClass:
        if disk_id in self.priority:
            return DiskClass.PRIORITY
        return DiskClass.REGULAR

    def observe_time(self, time: float) -> None:
        pass

    def observe_miss(self, disk_id: int, key: BlockKey, time: float) -> bool:
        return False


def drive(ref, new, state, capacity, seed, steps, on_step=None):
    """Run one random op sequence through ``ref`` and ``new`` in lockstep.

    The harness plays the cache: it tracks residency, asks for victims
    when full, sets some victims aside as pinned and re-inserts them
    (what ``Cache._make_room`` does), removes blocks externally, and
    repeats inserts of resident blocks. ``on_step(rng)`` may perturb
    shared state (a classifier) before each op.
    """
    rng = random.Random(seed)
    universe = 6 * capacity + 24  # keeps the ghost bound under pressure
    resident: set[BlockKey] = set()
    for step in range(steps):
        time = float(step)
        if on_step is not None:
            on_step(rng)
        roll = rng.random()
        if roll < 0.06 and resident:
            key = rng.choice(sorted(resident))
            ref.on_remove(key)
            new.on_remove(key)
            resident.discard(key)
        elif roll < 0.08 and resident:
            key = rng.choice(sorted(resident))
            ref.on_insert(key, time)
            new.on_insert(key, time)
        else:
            # skewed reuse: a hot head, then a long tail of ghosts
            block = int(rng.paretovariate(0.8)) % universe
            key = (rng.randrange(DISKS), block)
            hit = key in resident
            ref.on_access(key, time, hit)
            new.on_access(key, time, hit)
            if not hit:
                if len(resident) >= capacity:
                    skipped = []
                    while True:
                        victim = ref.evict(time)
                        assert new.evict(time) == victim, f"step {step}"
                        if len(ref) and rng.random() < PIN_RATE:
                            skipped.append(victim)
                            continue
                        break
                    resident.discard(victim)
                    for pinned in skipped:
                        ref.on_insert(pinned, time)
                        new.on_insert(pinned, time)
                resident.add(key)
                ref.on_insert(key, time)
                new.on_insert(key, time)
        assert state(new) == state(ref), f"diverged at step {step}"


# -- tests --------------------------------------------------------------------


@pytest.mark.parametrize("ghost_factor", [0, 1, 2])
@pytest.mark.parametrize("hir_fraction", [0.01, 0.25, 0.5])
@pytest.mark.parametrize("capacity", [1, 2, 3, 8, 64])
def test_matches_reference_scan(capacity, hir_fraction, ghost_factor):
    kwargs = dict(hir_fraction=hir_fraction, ghost_factor=ghost_factor)
    seed = 1000 * capacity + 10 * int(100 * hir_fraction) + ghost_factor
    drive(
        _ReferenceLIRS(capacity, **kwargs),
        LIRSPolicy(capacity, **kwargs),
        lirs_state,
        capacity,
        seed=seed,
        steps=1500,
    )


@pytest.mark.parametrize("capacity", [4, 8, 64])
def test_power_aware_migration_matches_reference(capacity, monkeypatch):
    """PA over LIRS: reclassifying a disk migrates its blocks on their
    next hit, through ``on_remove`` (which turns a stacked resident HIR
    block into a ghost) and ``on_insert`` on the other side. Each side
    may grow to the whole cache, so a large HIR share is what puts
    resident HIR blocks on a side's stack for migrations to find."""
    classifier = FlipClassifier()

    def flip(rng):
        if rng.random() < 0.05:
            classifier.priority ^= {rng.randrange(DISKS)}

    ref = PowerAwarePolicy(
        classifier, lambda: _ReferenceLIRS(capacity, hir_fraction=0.5)
    )
    new = PowerAwarePolicy(
        classifier, lambda: LIRSPolicy(capacity, hir_fraction=0.5)
    )
    ghost_migrations = 0
    migrate = PowerAwarePolicy._migrate

    def counting_migrate(self, key, target, time):
        nonlocal ghost_migrations
        home = self._home[key]
        if (
            self is new
            and home is not target
            and home._kind.get(key) is _Kind.HIR_RESIDENT
            and key in home._stack
        ):
            ghost_migrations += 1
        migrate(self, key, target, time)

    monkeypatch.setattr(PowerAwarePolicy, "_migrate", counting_migrate)
    drive(ref, new, pa_state, capacity, seed=capacity, steps=3000,
          on_step=flip)
    assert ghost_migrations > 0


def test_ghost_heap_stays_bounded():
    """~100k ops of heavy ghost churn: the heap never holds more than
    twice the live ghosts plus the slack, so an online LIRS session's
    memory does not grow with uptime."""
    capacity = 8
    policy = LIRSPolicy(capacity, hir_fraction=0.25, ghost_factor=0)
    rng = random.Random(7)
    resident: set[BlockKey] = set()
    heap_max = 0
    for step in range(100_000):
        time = float(step)
        if rng.random() < 0.05 and resident:
            key = rng.choice(sorted(resident))
            policy.on_remove(key)
            resident.discard(key)
        else:
            key = (0, int(rng.paretovariate(0.6)) % 400)
            hit = key in resident
            policy.on_access(key, time, hit)
            if not hit:
                if len(resident) >= capacity:
                    resident.discard(policy.evict(time))
                resident.add(key)
                policy.on_insert(key, time)
        heap = len(policy._ghost_heap)
        assert heap <= 2 * policy._ghosts + GHOST_HEAP_SLACK, f"step {step}"
        heap_max = max(heap_max, heap)
    ghost_bound = policy.ghost_capacity + capacity
    assert heap_max <= 2 * ghost_bound + GHOST_HEAP_SLACK


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="LIRS defect that predates the ghost index: removing the only "
    "LIR block leaves a resident HIR block at the stack bottom, and a "
    "later demotion resurrects a ghost as resident",
)
def test_removing_the_last_lir_block_keeps_victims_resident():
    """Capacity 2 gives one LIR and one HIR slot. Once ``on_remove``
    takes the only LIR block, the stack-bottom-is-LIR invariant breaks;
    ``_demote_bottom_lir`` later demotes the ghost at the bottom as if
    it were LIR, and ``evict`` offers that never-resident block."""
    policy = LIRSPolicy(2)
    resident: set[BlockKey] = set()
    A, B, C, D, E, F = ((0, block) for block in range(6))

    def access(key, time):
        hit = key in resident
        policy.on_access(key, time, hit)
        if not hit:
            if len(resident) >= 2:
                victim = policy.evict(time)
                assert victim in resident, f"evicted non-resident {victim}"
                resident.discard(victim)
            resident.add(key)
            policy.on_insert(key, time)

    access(A, 0.0)  # LIR
    access(B, 1.0)  # resident HIR
    policy.on_remove(A)
    resident.discard(A)
    for time, key in enumerate((B, C, D, E, D, F), start=2):
        access(key, float(time))
