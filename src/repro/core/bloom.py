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
import sys

import numpy as np

from repro.errors import ConfigurationError
from repro.snapshot import expect_length, pack_words, unpack_words

_MASK64 = (1 << 64) - 1
# splitmix64-style multipliers — fixed, so results are reproducible.
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
_STEP_SALT = 0x9E3779B97F4A7C15
#: Filter bit ``pos`` is bit ``pos & 7`` of byte ``(pos >> 3) ^ _FLIP``
#: of the native-order words: byte ``pos >> 3`` on a little-endian
#: host, the mirrored byte of the same word on a big-endian one.
_FLIP = 0 if sys.byteorder == "little" else 7


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

    Probe ``i`` of a key reads bit ``(base + i * step) mod 2**64 mod
    num_bits``, where ``base`` and ``step`` are the key's two splitmix64
    mixes. The bits live in ``_words``, a numpy ``uint64`` array (the
    form the batch kernel hands over and snapshots pack); probes read
    and set them through a byte view of the same buffer, built on first
    use and dropped whenever ``_words`` is rebound.

    Args:
        num_bits: Size of the bit vector (rounded up to a multiple of 64).
        num_hashes: Number of probes per key (``k``).
    """

    #: The byte view of ``_words``; ``None`` until a probe builds it.
    _bytes: memoryview | None = None

    def __init__(self, num_bits: int = 1 << 22, num_hashes: int = 4) -> None:
        if num_bits < 64:
            raise ConfigurationError(f"num_bits must be >= 64, got {num_bits}")
        if num_hashes < 1:
            raise ConfigurationError(f"num_hashes must be >= 1, got {num_hashes}")
        self.num_bits = ((num_bits + 63) // 64) * 64
        self.num_hashes = num_hashes
        self._words = np.zeros(self.num_bits // 64, dtype=np.uint64)
        self._count = 0  # distinct insertions (approximate population)

    @property
    def _words(self) -> np.ndarray:
        return self._array

    @_words.setter
    def _words(self, words: np.ndarray) -> None:
        self._array = words
        self._bytes = None

    def _bind_bytes(self) -> memoryview:
        self._bytes = memoryview(self._array).cast("B")
        return self._bytes

    def __getstate__(self) -> dict:
        # A memoryview neither pickles nor copies; the copy builds its
        # own on first use.
        state = self.__dict__.copy()
        state.pop("_bytes", None)
        return state

    def _start(self, key: tuple[int, int]) -> tuple[int, int]:
        """The key's first probe hash and its double-hashing step."""
        disk, block = key
        base = _mix((disk << 48) ^ block)
        return base, _mix(base ^ _STEP_SALT) | 1

    def __contains__(self, key: tuple[int, int]) -> bool:
        h, step = self._start(key)
        view = self._bytes or self._bind_bytes()
        num_bits = self.num_bits
        for _ in range(self.num_hashes):
            pos = h % num_bits
            if not view[(pos >> 3) ^ _FLIP] >> (pos & 7) & 1:
                return False
            h = (h + step) & _MASK64
        return True

    def add(self, key: tuple[int, int]) -> None:
        h, step = self._start(key)
        view = self._bytes or self._bind_bytes()
        num_bits = self.num_bits
        for _ in range(self.num_hashes):
            pos = h % num_bits
            view[(pos >> 3) ^ _FLIP] |= 1 << (pos & 7)
            h = (h + step) & _MASK64
        self._count += 1

    def check_and_add(self, key: tuple[int, int]) -> bool:
        """Return whether ``key`` was (probably) present, inserting it.

        This is the single operation PA performs per miss: a ``False``
        result certifies a cold miss. Both mixes are inlined.
        """
        disk, block = key
        x = ((disk << 48) ^ block) & _MASK64
        x ^= x >> 30
        x = (x * _MUL1) & _MASK64
        x ^= x >> 27
        x = (x * _MUL2) & _MASK64
        h = x ^ (x >> 31)
        x = h ^ _STEP_SALT
        x ^= x >> 30
        x = (x * _MUL1) & _MASK64
        x ^= x >> 27
        x = (x * _MUL2) & _MASK64
        step = x ^ (x >> 31) | 1
        view = self._bytes or self._bind_bytes()
        num_bits = self.num_bits
        present = True
        for _ in range(self.num_hashes):
            pos = h % num_bits
            i = (pos >> 3) ^ _FLIP
            byte = view[i]
            bit = 1 << (pos & 7)
            if not byte & bit:
                present = False
                view[i] = byte | bit
            h = (h + step) & _MASK64
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
