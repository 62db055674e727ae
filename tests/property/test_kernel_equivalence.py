"""Batch kernels vs their scalar references: bit-identical outputs.

Every kernel in :mod:`repro.core.kernels` claims exact equivalence with
the per-access scalar loop it replaces. This suite pins that claim with
seeded randomized sweeps: each test draws inputs from a seeded RNG
(varying epoch lengths, disk counts, duplicate timestamps, values
landing exactly on bin edges and epoch boundaries), runs the kernel and
a straightforward scalar mirror, and compares outputs for equality —
integer-exact and float-bit-exact, never approximate.

~20 seeds run in the fast suite; a larger sweep with bigger inputs sits
behind ``-m slow``.
"""

import math
import random

import pytest

from repro.core import kernels
from repro.core.bloom import BloomFilter
from repro.core.histogram import IntervalHistogram, default_bin_edges

FAST_SEEDS = range(20)
SLOW_SEEDS = range(20, 120)

EPOCH_LENGTHS = (0.5, 3.0, 17.7, 120.0, 900.0)


# -- input generators -----------------------------------------------------


def _random_times(rng: random.Random, n: int, dup_rate: float = 0.2):
    """Ascending times with deliberate duplicates (zero-length gaps)."""
    times = []
    t = rng.uniform(0.0, 10.0)
    for _ in range(n):
        if times and rng.random() < dup_rate:
            pass  # repeat the current time exactly
        else:
            t += rng.expovariate(1.0 / 2.5)
        times.append(t)
    return times


def _random_accesses(rng: random.Random, n: int):
    num_disks = rng.choice((1, 2, 5, 20))
    num_blocks = rng.choice((8, 100, 5000))
    times = _random_times(rng, n)
    disks = [rng.randrange(num_disks) for _ in range(n)]
    blocks = [rng.randrange(num_blocks) for _ in range(n)]
    return times, disks, blocks


# -- scalar references ----------------------------------------------------


def _scalar_bloom_verdicts(disks, blocks, num_bits, num_hashes):
    """Per-position cold verdicts by literal ``check_and_add`` replay."""
    bloom = BloomFilter(num_bits=num_bits, num_hashes=num_hashes)
    cold = [not bloom.check_and_add((d, b)) for d, b in zip(disks, blocks)]
    return cold, bloom


def _scalar_roll_counts(times, epoch_length_s):
    """Completed-epoch count per access, via ``_maybe_roll``'s exact
    float accumulation (repeated addition, not multiplication)."""
    epoch_end = None
    rolls = 0
    out = []
    for t in times:
        if epoch_end is None:
            epoch_end = t + epoch_length_s
        else:
            while t >= epoch_end:
                rolls += 1
                epoch_end += epoch_length_s
        out.append(rolls)
    return out


def _scalar_next_arrays(disks, blocks, times):
    """The offline prepare as one reverse loop over a dict; a key's id
    is its rank among the sorted distinct ``(disk, block)`` pairs."""
    n = len(times)
    inf = float("inf")
    next_pos = [n] * n
    next_time = [inf] * n
    last_seen = {}
    for i in range(n - 1, -1, -1):
        key = (disks[i], blocks[i])
        nxt = last_seen.get(key, n)
        next_pos[i] = nxt
        next_time[i] = times[nxt] if nxt < n else inf
        last_seen[key] = i
    first_mask = [False] * n
    for i in last_seen.values():
        first_mask[i] = True
    rank = {key: r for r, key in enumerate(sorted(last_seen))}
    key_ids = [rank[key] for key in zip(disks, blocks)]
    return next_pos, next_time, first_mask, key_ids


def _scalar_first_times(disks, blocks, times):
    """Per-disk sorted unique first-access times, dict-and-set style."""
    seen = set()
    per_disk = {}
    for d, b, t in zip(disks, blocks, times):
        if (d, b) in seen:
            continue
        seen.add((d, b))
        per_disk.setdefault(d, set()).add(t)
    return {d: sorted(ts) for d, ts in per_disk.items()}


# -- Bloom membership ------------------------------------------------------


def _check_bloom(seed: int, n: int, num_bits: int) -> None:
    rng = random.Random(seed)
    times, disks, blocks = _random_accesses(rng, n)
    num_hashes = rng.choice((1, 3, 4))
    cold_ref, bloom = _scalar_bloom_verdicts(disks, blocks, num_bits, num_hashes)
    cold, inserted, words = kernels.bloom_cold_mask(
        disks, blocks, bloom.num_bits, num_hashes,
        chunk=rng.choice((7, 64, 1 << 15)),
    )
    assert cold.tolist() == cold_ref
    assert inserted == bloom.approximate_population
    assert words.tolist() == bloom._words.tolist()


@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_bloom_cold_mask_matches_scalar(seed):
    # A small filter forces false positives and intra-chunk bit
    # collisions — the hard cases for the batched check-then-set order.
    _check_bloom(seed, n=400, num_bits=1 << 10)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_bloom_cold_mask_matches_scalar_slow(seed):
    _check_bloom(seed, n=4000, num_bits=1 << 12)


def test_bloom_cold_mask_empty():
    cold, inserted, words = kernels.bloom_cold_mask([], [], 1 << 10, 3)
    assert cold.tolist() == [] and inserted == 0
    assert not words.any()


# -- epoch machinery -------------------------------------------------------


def _check_epochs(seed: int, n: int) -> None:
    rng = random.Random(seed)
    epoch_len = rng.choice(EPOCH_LENGTHS)
    times = _random_times(rng, n, dup_rate=0.3)
    # Land some accesses exactly on epoch boundaries: the scalar roll
    # condition is ``time >= epoch_end``, a tie the kernel must honor.
    boundary = times[0] + epoch_len
    for _ in range(3):
        times.append(boundary)
        boundary += epoch_len
    times.sort()
    ref = _scalar_roll_counts(times, epoch_len)
    table = kernels.epoch_boundary_table(times[0], epoch_len, times[-1])
    counts = kernels.epoch_roll_counts(times, table)
    assert counts.tolist() == ref
    # the table's last entry is the classifier's resting _epoch_end
    assert table[-1] > times[-1]
    assert table[:-1].tolist() == [b for b in table[:-1]]  # finite floats


@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_epoch_rolls_match_scalar(seed):
    _check_epochs(seed, n=300)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_epoch_rolls_match_scalar_slow(seed):
    _check_epochs(seed, n=3000)


def test_epoch_single_request():
    # One access arms the epoch clock and never rolls.
    table = kernels.epoch_boundary_table(5.0, 30.0, 5.0)
    assert table.tolist() == [35.0]
    assert kernels.epoch_roll_counts([5.0], table).tolist() == [0]


def test_epoch_boundary_exactly_on_timestamp():
    # time == epoch_end rolls exactly once (scalar: ``time >= end``).
    times = [0.0, 30.0, 30.0, 60.0]
    table = kernels.epoch_boundary_table(0.0, 30.0, 60.0)
    assert kernels.epoch_roll_counts(times, table).tolist() == (
        _scalar_roll_counts(times, 30.0)
    )
    assert _scalar_roll_counts(times, 30.0) == [0, 1, 1, 2]


def test_epoch_gap_spanning_many_empty_epochs():
    # A long silence crosses several boundaries at once — every
    # intermediate epoch is empty but still counted.
    times = [0.0, 1000.0]
    table = kernels.epoch_boundary_table(0.0, 30.0, 1000.0)
    assert kernels.epoch_roll_counts(times, table).tolist() == (
        _scalar_roll_counts(times, 30.0)
    )


# -- interval histograms ---------------------------------------------------


def _check_histogram(seed: int, n: int) -> None:
    rng = random.Random(seed)
    if rng.random() < 0.5:
        edges = default_bin_edges()
    else:
        edges = sorted(
            {round(rng.uniform(0.0, 100.0), 2) for _ in range(rng.randint(2, 12))}
        )
    values = [rng.expovariate(0.1) for _ in range(n)]
    # exact-edge ties (bisect_left boundary), zero, and overflow values
    values += [rng.choice(edges) for _ in range(n // 10)]
    values += [0.0, edges[-1] * 10.0]
    hist = IntervalHistogram(edges)
    for v in values:
        hist.add(v)
    counts = kernels.histogram_counts(edges, values)
    assert counts.tolist() == hist.counts
    for p in (0.0, 0.25, 0.5, 0.8, 0.95, 1.0, rng.random()):
        assert kernels.histogram_quantile(
            edges, counts, hist.total, p
        ) == hist.quantile(p)


@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_histogram_kernels_match_scalar(seed):
    _check_histogram(seed, n=500)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_histogram_kernels_match_scalar_slow(seed):
    _check_histogram(seed, n=5000)


def test_histogram_empty_epoch():
    # An epoch with no intervals: zero counts, quantile == inf (the
    # classifier reads "never accessed" as unboundedly long intervals).
    edges = default_bin_edges()
    counts = kernels.histogram_counts(edges, [])
    assert counts.tolist() == [0] * (len(edges) + 1)
    assert kernels.histogram_quantile(edges, counts, 0, 0.8) == math.inf
    assert IntervalHistogram(edges).quantile(0.8) == math.inf


def test_add_batch_matches_scalar_adds():
    rng = random.Random(7)
    values = [rng.expovariate(0.05) for _ in range(1000)]
    one = IntervalHistogram()
    for v in values:
        one.add(v)
    batched = IntervalHistogram()
    batched.add_batch(values)
    assert batched.counts == one.counts and batched.total == one.total


# -- offline forward knowledge --------------------------------------------


def _check_next_arrays(seed: int, n: int) -> None:
    rng = random.Random(seed)
    times, disks, blocks = _random_accesses(rng, n)
    ref_pos, ref_time, ref_first, ref_ids = _scalar_next_arrays(
        disks, blocks, times
    )
    next_pos, next_time, first_mask, key_ids = kernels.next_access_arrays(
        disks, blocks, times
    )
    assert next_pos.tolist() == ref_pos
    assert next_time.tolist() == ref_time  # inf == inf, floats bit-equal
    assert first_mask.tolist() == ref_first
    assert key_ids.tolist() == ref_ids

    ref_seed = _scalar_first_times(disks, blocks, times)
    out = kernels.first_times_by_disk(disks, times, first_mask)
    assert [d for d, _ in out] == sorted(ref_seed)
    for d, ts in out:
        assert ts.tolist() == ref_seed[d]


@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_next_access_arrays_match_scalar(seed):
    _check_next_arrays(seed, n=400)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_next_access_arrays_match_scalar_slow(seed):
    _check_next_arrays(seed, n=4000)


@pytest.mark.parametrize(
    "disks, blocks",
    [
        # disk * (max_block + 1) + block maps (0, 5) and (1, -1) alike
        ([0, 1, 0, 1, 1], [5, -1, 5, -1, 0]),
        # ... and (0, 4) and (4, 0) alike once it wraps past int64
        ([0, 4, 0, 4, 4, 0], [4, 0, 1 << 62, 0, 4, 4]),
    ],
)
def test_next_access_arrays_keep_every_key_apart(disks, blocks):
    times = [float(i) for i in range(len(disks))]
    ref_pos, ref_time, ref_first, ref_ids = _scalar_next_arrays(
        disks, blocks, times
    )
    next_pos, next_time, first_mask, key_ids = kernels.next_access_arrays(
        disks, blocks, times
    )
    assert next_pos.tolist() == ref_pos
    assert next_time.tolist() == ref_time
    assert first_mask.tolist() == ref_first
    assert key_ids.tolist() == ref_ids


def test_next_access_arrays_empty():
    next_pos, next_time, first_mask, key_ids = kernels.next_access_arrays(
        [], [], []
    )
    assert len(next_pos) == len(next_time) == len(first_mask) == 0
    assert len(key_ids) == 0
    assert kernels.first_times_by_disk([], [], first_mask) == []
