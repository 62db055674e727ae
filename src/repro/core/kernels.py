"""Vectorized batch kernels for the power-aware hot paths.

The scalar classifier/OPG machinery (:mod:`repro.core.bloom`,
:mod:`repro.core.histogram`, :mod:`repro.core.classifier`,
:mod:`repro.core.opg`) processes one access at a time; at millions of
requests those per-access Python frames dominate the simulation. Every
function here re-expresses one of those loops as a numpy batch kernel
over the per-block access columns of a
:class:`~repro.traces.columnar.ColumnarTrace`, one row per block a
request touches
(:meth:`~repro.traces.columnar.ColumnarTrace.block_accesses`):

* :func:`bloom_cold_mask` — the classifier's cold-miss Bloom filter as
  batched splitmix64 hashing over key chunks,
* :func:`epoch_boundary_table` / :func:`epoch_roll_counts` — epoch
  rollover as a precomputed boundary table plus one ``searchsorted``,
* :func:`histogram_counts` / :func:`histogram_quantile` — the per-disk
  interval CDFs as vectorized histograms with bisect-style percentile
  lookup,
* :func:`next_access_arrays` — the offline-policy forward-knowledge
  arrays as a stable lexsort sweep,
* :func:`first_times_by_disk` — OPG's deterministic-miss timeline
  seeding as a sorted-array sweep.

:func:`access_keys`, a helper rather than a kernel, is the one exact
fusion of a ``(disk, block)`` pair into an int64 key: the offline
prepare sorts it, and so does the fused PA-LRU loop's cold-miss count.

Every kernel is **bit-identical** to the scalar loop it replaces — not
approximately equal. The property suite
(``tests/property/test_kernel_equivalence.py``) pins each one against
its straightforward scalar reference over randomized inputs, and the
differential suite (``tests/sim/test_kernel_differential.py``) pins the
fused engine loops built on them against the reference per-object path.

Kernels are registered by the :func:`batch_kernel` decorator and must
be enumerated in ``FAST_PATH_AUDITED["BatchKernel"]``
(:mod:`repro.sim.engine`) — the ``fastpath`` reprolint rule fails the
build for any decorated kernel missing from the registry, so a new
kernel cannot silently skip the equivalence audit.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

#: ``name -> function`` for every :func:`batch_kernel`-decorated kernel.
BATCH_KERNELS: dict[str, Callable] = {}


def batch_kernel(fn: Callable) -> Callable:
    """Mark ``fn`` as a vectorized kernel entry point.

    Registration is what the ``fastpath`` lint rule keys on: decorated
    functions must appear in ``FAST_PATH_AUDITED["BatchKernel"]``.
    """
    BATCH_KERNELS[fn.__name__] = fn
    return fn


# -- Bloom filter ---------------------------------------------------------

_MASK64 = (1 << 64) - 1
# The same splitmix64 constants as repro.core.bloom (fixed, seedless).
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
_STEP_SALT = 0x9E3779B97F4A7C15


def _mix64(x):
    """Vectorized :func:`repro.core.bloom._mix` (uint64 wraps exactly)."""
    x = x.copy()
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MUL1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MUL2)
    x ^= x >> np.uint64(31)
    return x


@batch_kernel
def bloom_cold_mask(disks, blocks, num_bits: int, num_hashes: int,
                    chunk: int = 1 << 15):
    """Replay the classifier's Bloom filter over a whole access column.

    The scalar classifier feeds ``BloomFilter.check_and_add`` one miss
    at a time; but the filter's state trajectory is trace-determined:
    the first access to any block is a miss under every policy, so the
    filter acquires exactly the first occurrence of each key, in trace
    order, and every later occurrence probes all-set bits. This kernel
    exploits that to compute the cold/warm verdict of **every** access
    position up front — batched hashing over key chunks — without
    knowing which accesses will actually miss.

    Verdicts are exact, including false positives: within a chunk, a
    key whose probe bits were clear before the chunk is warm only if
    every such bit is set by a *strictly earlier* insertion in the same
    chunk (resolved with a stable sort of the chunk's probe bits),
    which is precisely the scalar check-then-set order.

    Args:
        disks / blocks: Equal-length integer columns of the access
            stream (one entry per block access, trace order).
        num_bits: Filter width — pass ``BloomFilter.num_bits`` (already
            rounded to a multiple of 64; with ``num_hashes <= 64`` a
            single key's probes therefore never collide, and even when
            they do the verdict algebra below still matches the scalar
            check-then-set order).
        num_hashes: Probes per key.
        chunk: Keys hashed per batch (memory bound, not a semantic).

    Returns:
        ``(cold, inserted, words)`` — per-position cold verdicts (bool
        array; warm everywhere but cold first occurrences), the number
        of counted insertions (``BloomFilter._count`` after the run),
        and the final filter words (``BloomFilter._words`` after the
        run).
    """
    n = len(disks)
    words = np.zeros(num_bits // 64, dtype=np.uint64)
    cold = np.zeros(n, dtype=bool)
    if n == 0:
        return cold, 0, words
    key64 = (
        np.asarray(disks).astype(np.uint64) << np.uint64(48)
    ) ^ np.asarray(blocks).astype(np.uint64)
    # First occurrence of each distinct key, in trace order. Keys whose
    # (disk << 48) ^ block images collide are indistinguishable to the
    # scalar filter too (identical probe sequences), so folding them
    # here reproduces its verdicts exactly.
    _, first = np.unique(key64, return_index=True)
    first.sort()
    fkeys = key64[first]
    m = len(fkeys)
    base = _mix64(fkeys)
    step = _mix64(base ^ np.uint64(_STEP_SALT)) | np.uint64(1)
    hashes = np.arange(num_hashes, dtype=np.uint64)
    cold_first = np.zeros(m, dtype=bool)
    row_ids = np.arange(min(chunk, m), dtype=np.int64)
    for lo in range(0, m, chunk):
        hi = min(lo + chunk, m)
        span = hi - lo
        pos = (base[lo:hi, None] + hashes * step[lo:hi, None]) % np.uint64(
            num_bits
        )
        word_idx = (pos >> np.uint64(6)).astype(np.int64)
        bit = np.uint64(1) << (pos & np.uint64(63))
        set_pre = (words[word_idx] & bit) != 0
        warm = set_pre.all(axis=1)
        pending = ~warm
        if pending.any():
            # A probe bit clear before the chunk still reads as set if
            # an earlier row in the chunk probes (and therefore sets)
            # it first: find each bit's earliest prober. The flat order
            # is row-major, so a stable sort by bit keeps each bit's
            # probers in row order and its group head is the earliest;
            # a running maximum of head indices broadcasts the head to
            # the rest of its group.
            flat_pos = pos.reshape(-1)
            order = np.argsort(flat_pos, kind="stable")
            sorted_pos = flat_pos[order]
            head = np.empty(len(order), dtype=bool)
            head[0] = True
            head[1:] = sorted_pos[1:] != sorted_pos[:-1]
            head_at = np.maximum.accumulate(
                np.where(head, np.arange(len(order)), 0)
            )
            min_row = np.empty(len(order), dtype=np.int64)
            min_row[order] = order[head_at] // num_hashes
            available = set_pre | (
                min_row.reshape(span, num_hashes) < row_ids[:span, None]
            )
            warm = available.all(axis=1)
        cold_first[lo:hi] = ~warm
        np.bitwise_or.at(words, word_idx.reshape(-1), bit.reshape(-1))
    cold[first] = cold_first
    return cold, int(cold_first.sum()), words


# -- epoch machinery ------------------------------------------------------


@batch_kernel
def epoch_boundary_table(t_first: float, epoch_length_s: float,
                         t_last: float):
    """Every epoch boundary the classifier will cross, plus one beyond.

    Replicates ``DiskClassifier._maybe_roll``'s float accumulation
    exactly: the first boundary is ``t_first + epoch_length_s`` (the
    classifier arms itself at the first observed time) and each next
    boundary is the previous *plus* the length — repeated addition, not
    ``t_first + k * length``, which differs in the last ulp.

    The final entry is the first boundary strictly beyond ``t_last``,
    the end of the epoch the trace finishes in: no access rolls on it.
    """
    bounds = []
    boundary = t_first + epoch_length_s
    while boundary <= t_last:
        bounds.append(boundary)
        boundary += epoch_length_s
    bounds.append(boundary)
    return np.asarray(bounds, dtype=np.float64)


@batch_kernel
def epoch_roll_counts(times, boundaries):
    """Completed-epoch count as of each access (array reduction).

    ``counts[i]`` is the number of boundaries at or before ``times[i]``
    — exactly how many ``_reclassify`` calls the scalar classifier has
    performed once it observes that access (its roll condition is
    ``time >= epoch_end``, hence ``side='right'``).
    """
    return np.searchsorted(boundaries, np.asarray(times), side="right")


# -- interval histograms --------------------------------------------------


@batch_kernel
def histogram_counts(edges, values):
    """Bin a batch of interval lengths (vectorized ``IntervalHistogram.add``).

    ``searchsorted(..., side='left')`` is ``bisect.bisect_left`` on the
    same floats; the returned vector has ``len(edges) + 1`` entries,
    the last being the overflow bin.
    """
    edges = np.asarray(edges, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if len(values) == 0:
        return np.zeros(len(edges) + 1, dtype=np.int64)
    return np.bincount(
        np.searchsorted(edges, values, side="left"),
        minlength=len(edges) + 1,
    ).astype(np.int64, copy=False)


@batch_kernel
def histogram_quantile(edges, counts, total: int, p: float) -> float:
    """``x_p`` percentile lookup over binned counts (bisect style).

    Mirrors ``IntervalHistogram.quantile``: the smallest edge whose
    cumulative count reaches ``p * total``, ``inf`` when only the
    overflow bin does or the histogram is empty.
    """
    if total == 0:
        return math.inf
    threshold = p * total
    cumulative = np.cumsum(np.asarray(counts[: len(edges)], dtype=np.int64))
    index = int(np.searchsorted(cumulative, threshold, side="left"))
    if index < len(edges):
        return float(edges[index])
    return math.inf


# -- offline-policy forward knowledge -------------------------------------


def access_keys(disks, blocks):
    """One int64 key per ``(disk, block)`` pair, equal exactly when the
    pairs are: the one way the columns' two ids are fused.

    Both ids are offset by their minima, so ``disk * span + block`` is
    collision-free for any ids, negative ones included, while the fused
    range fits int64; past it (never on a real trace) a pair's key is
    its index among the distinct pairs, compared as rows. Returns a
    new array, so callers may sort it in place.
    """
    disks = np.asarray(disks, dtype=np.int64)
    blocks = np.asarray(blocks, dtype=np.int64)
    if not len(disks):
        return np.zeros(0, dtype=np.int64)
    first_disk = int(disks.min())
    first_block = int(blocks.min())
    span = int(blocks.max()) - first_block + 1
    if (int(disks.max()) - first_disk + 1) * span >= 1 << 63:
        _, keys = np.unique(
            np.stack((disks, blocks), axis=1), axis=0, return_inverse=True
        )
        return keys.reshape(-1).astype(np.int64, copy=False)
    keys = disks - first_disk
    keys *= span
    keys += blocks - first_block
    return keys


@batch_kernel
def next_access_arrays(disks, blocks, times):
    """Next-occurrence position/time per access (stable lexsort sweep).

    This is the one way an offline policy is prepared
    (``OfflinePolicy.prepare_columnar``). A reverse Python loop over a
    dict, its mirror in the property suite, builds these one access
    at a time; here a stable sort by ``(disk, block)`` makes every
    key's accesses contiguous in index order, so the successor within
    each group *is* the next access.

    Returns:
        ``(next_pos, next_time, first_mask, key_ids)`` — position of
        the next access to the same key (``n`` when never again), its
        time (``inf`` when never again), whether each position is the
        key's first occurrence, and each access's dense key id: the
        rank of its key among the distinct keys in ``(disk, block)``
        order, so ids run from 0 to the distinct-key count less one
        and equal ids mean equal keys.
    """
    disks = np.asarray(disks)
    blocks = np.asarray(blocks)
    times = np.asarray(times, dtype=np.float64)
    n = len(disks)
    next_pos = np.full(n, n, dtype=np.int64)
    next_time = np.full(n, np.inf, dtype=np.float64)
    first_mask = np.ones(n, dtype=bool)
    key_ids = np.empty(n, dtype=np.int64)
    if n == 0:
        return next_pos, next_time, first_mask, key_ids
    # Stable sort on one exact fused (disk, block) key (access_keys)
    # instead of a two-pass lexsort: one sort pass instead of two, and
    # the group-boundary test collapses to a single comparison.
    fused = access_keys(disks, blocks)
    order = np.argsort(fused, kind="stable")
    fused = fused[order]
    same = fused[1:] == fused[:-1]
    predecessors = order[:-1][same]
    successors = order[1:][same]
    next_pos[predecessors] = successors
    next_time[predecessors] = times[successors]
    first_mask[successors] = False
    # each sorted key's group number, scattered back to trace order
    ranks = np.zeros(n, dtype=np.int64)
    np.cumsum(~same, out=ranks[1:])
    key_ids[order] = ranks
    return next_pos, next_time, first_mask, key_ids


@batch_kernel
def first_times_by_disk(disks, times, first_mask):
    """Per-disk sorted unique first-access times (sorted-array sweep).

    This is OPG's deterministic-miss seeding — every cold miss is a
    known disk access — delivered as ready-to-load sorted arrays
    (``DiskTimeline.from_sorted``) instead of one timeline insert per
    key.

    Returns:
        ``[(disk_id, times_sorted_unique), ...]`` for every disk with
        at least one access, in ascending disk order.
    """
    disks = np.asarray(disks)
    times = np.asarray(times, dtype=np.float64)
    first_idx = np.flatnonzero(np.asarray(first_mask))
    if len(first_idx) == 0:
        return []
    fd = disks[first_idx]
    ft = times[first_idx]
    order = np.lexsort((ft, fd))
    fd = fd[order]
    ft = ft[order]
    starts = np.flatnonzero(
        np.concatenate(([True], fd[1:] != fd[:-1]))
    )
    out = []
    bounds = np.append(starts, len(fd))
    for i, start in enumerate(starts):
        stop = bounds[i + 1]
        disk_times = ft[start:stop]
        keep = np.concatenate(([True], disk_times[1:] != disk_times[:-1]))
        out.append((int(fd[start]), disk_times[keep]))
    return out
