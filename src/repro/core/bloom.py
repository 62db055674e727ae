"""Bloom filter for cold-miss detection (Section 4 of the paper).

PA needs to know, online and in O(1) space per block, whether a miss is
a *cold* miss (first access ever). The paper uses a Bloom filter: a bit
vector and ``k`` hash functions; if any probed bit is clear the block
was definitely never seen (cold); if all are set it is assumed warm,
with a small false-positive probability.

Hashing is deterministic (no dependence on ``PYTHONHASHSEED``): two
independent multiplicative hashes combined by double hashing, the
standard Kirsch–Mitzenmacher construction.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError
from repro.snapshot import expect_length, pack_words, unpack_words

_MASK64 = (1 << 64) - 1
# splitmix64-style multipliers — fixed, so results are reproducible.
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB


def _mix(x: int) -> int:
    x &= _MASK64
    x ^= x >> 30
    x = (x * _MUL1) & _MASK64
    x ^= x >> 27
    x = (x * _MUL2) & _MASK64
    x ^= x >> 31
    return x


class BloomFilter:
    """Fixed-size Bloom filter over ``(disk_id, block)`` keys.

    Args:
        num_bits: Size of the bit vector (rounded up to a multiple of 64).
        num_hashes: Number of probes per key (``k``).
    """

    def __init__(self, num_bits: int = 1 << 22, num_hashes: int = 4) -> None:
        if num_bits < 64:
            raise ConfigurationError(f"num_bits must be >= 64, got {num_bits}")
        if num_hashes < 1:
            raise ConfigurationError(f"num_hashes must be >= 1, got {num_hashes}")
        self.num_bits = ((num_bits + 63) // 64) * 64
        self.num_hashes = num_hashes
        self._words = np.zeros(self.num_bits // 64, dtype=np.uint64)
        self._count = 0  # distinct insertions (approximate population)

    def _positions(self, key: tuple[int, int]) -> list[int]:
        disk, block = key
        base = _mix((disk << 48) ^ block)
        step = _mix(base ^ 0x9E3779B97F4A7C15) | 1
        return [
            ((base + i * step) & _MASK64) % self.num_bits
            for i in range(self.num_hashes)
        ]

    def __contains__(self, key: tuple[int, int]) -> bool:
        words = self._words
        for pos in self._positions(key):
            if not (int(words[pos >> 6]) >> (pos & 63)) & 1:
                return False
        return True

    def add(self, key: tuple[int, int]) -> None:
        words = self._words
        for pos in self._positions(key):
            words[pos >> 6] |= np.uint64(1 << (pos & 63))
        self._count += 1

    def check_and_add(self, key: tuple[int, int]) -> bool:
        """Return whether ``key`` was (probably) present, inserting it.

        This is the single operation PA performs per miss: a ``False``
        result certifies a cold miss.
        """
        words = self._words
        present = True
        for pos in self._positions(key):
            word = pos >> 6
            bit = np.uint64(1 << (pos & 63))
            if not int(words[word]) & int(bit):
                present = False
                words[word] |= bit
        if not present:
            self._count += 1
        return present

    def state_dict(self) -> dict:
        return {"words": pack_words(self._words), "count": self._count}

    def load_state_dict(self, state: dict) -> None:
        words = unpack_words(state["words"])
        expect_length("Bloom filter words", words, len(self._words))
        self._count = int(state["count"])
        self._words = words

    @property
    def approximate_population(self) -> int:
        """Number of distinct keys inserted (exact modulo false positives)."""
        return self._count

    def false_positive_rate(self) -> float:
        """Theoretical FP rate at the current population."""
        if self._count == 0:
            return 0.0
        exponent = -self.num_hashes * self._count / self.num_bits
        return (1.0 - math.exp(exponent)) ** self.num_hashes
