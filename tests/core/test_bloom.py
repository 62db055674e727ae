"""Tests for the cold-miss Bloom filter."""

import copy
import pickle
import random

import numpy as np
import pytest

from repro.core.bloom import _MASK64, BloomFilter, _mix
from repro.errors import ConfigurationError


class TestBloomFilter:
    def test_no_false_negatives(self):
        bloom = BloomFilter(num_bits=1 << 16, num_hashes=4)
        keys = [(d, b) for d in range(4) for b in range(500)]
        for key in keys:
            bloom.add(key)
        for key in keys:
            assert key in bloom

    def test_check_and_add_semantics(self):
        bloom = BloomFilter(num_bits=1 << 16)
        assert bloom.check_and_add((0, 1)) is False  # cold
        assert bloom.check_and_add((0, 1)) is True  # now warm

    def test_fresh_filter_empty(self):
        bloom = BloomFilter(num_bits=1 << 12)
        assert (3, 7) not in bloom
        assert bloom.approximate_population == 0

    def test_false_positive_rate_small_when_sized_right(self):
        bloom = BloomFilter(num_bits=1 << 17, num_hashes=4)
        for b in range(2000):
            bloom.add((0, b))
        false_positives = sum(
            1 for b in range(100_000, 104_000) if (1, b) in bloom
        )
        assert false_positives / 4000 < 0.01

    def test_theoretical_fp_rate(self):
        bloom = BloomFilter(num_bits=1 << 14, num_hashes=4)
        assert bloom.false_positive_rate() == 0.0
        for b in range(1000):
            bloom.add((0, b))
        assert 0.0 < bloom.false_positive_rate() < 1.0

    def test_deterministic_across_instances(self):
        a = BloomFilter(num_bits=1 << 12)
        b = BloomFilter(num_bits=1 << 12)
        a.add((5, 123456))
        b.add((5, 123456))
        assert ((5, 123456) in a) and ((5, 123456) in b)
        # same hash positions -> same words set
        assert (a._words == b._words).all()

    def test_bits_rounded_to_words(self):
        bloom = BloomFilter(num_bits=100)
        assert bloom.num_bits == 128

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigurationError):
            BloomFilter(num_bits=10)
        with pytest.raises(ConfigurationError):
            BloomFilter(num_hashes=0)


class _ReferenceBloom:
    """The filter's original probe code, over numpy scalar indexing —
    the reference the byte-view probes are pinned against."""

    def __init__(self, num_bits, num_hashes):
        self.num_bits = ((num_bits + 63) // 64) * 64
        self.num_hashes = num_hashes
        self.words = np.zeros(self.num_bits // 64, dtype=np.uint64)
        self.count = 0

    def positions(self, key):
        disk, block = key
        base = _mix((disk << 48) ^ block)
        step = _mix(base ^ 0x9E3779B97F4A7C15) | 1
        return [
            ((base + i * step) & _MASK64) % self.num_bits
            for i in range(self.num_hashes)
        ]

    def contains(self, key):
        for pos in self.positions(key):
            if not (int(self.words[pos >> 6]) >> (pos & 63)) & 1:
                return False
        return True

    def add(self, key):
        for pos in self.positions(key):
            self.words[pos >> 6] |= np.uint64(1 << (pos & 63))
        self.count += 1

    def check_and_add(self, key):
        present = True
        for pos in self.positions(key):
            word = pos >> 6
            bit = np.uint64(1 << (pos & 63))
            if not int(self.words[word]) & int(bit):
                present = False
                self.words[word] |= bit
        if not present:
            self.count += 1
        return present


class TestByteViewProbes:
    """The byte-view probes against the reference, after every call."""

    @pytest.mark.parametrize(
        "num_bits, num_hashes, keys",
        [(1 << 12, 4, 3000), (64, 4, 300), (192, 64, 300), (1000, 7, 2000)],
    )
    def test_matches_reference(self, num_bits, num_hashes, keys):
        rng = random.Random(num_bits * 31 + num_hashes)
        bloom = BloomFilter(num_bits, num_hashes)
        ref = _ReferenceBloom(num_bits, num_hashes)
        for _ in range(keys):
            key = (rng.randrange(1 << 16), rng.randrange(1 << 40))
            if rng.random() < 0.3:
                key = (key[0] % 4, key[1] % 97)  # repeats
            op = rng.randrange(3)
            if op == 0:
                assert bloom.check_and_add(key) is ref.check_and_add(key)
            elif op == 1:
                assert (key in bloom) is ref.contains(key)
            else:
                bloom.add(key)
                ref.add(key)
            assert bloom._count == ref.count
            assert bloom._words.tolist() == ref.words.tolist()

    def test_view_follows_rebinding(self):
        bloom = BloomFilter(num_bits=1 << 10)
        bloom.add((1, 2))
        other = BloomFilter(num_bits=1 << 10)
        other.add((3, 4))
        bloom.load_state_dict(other.state_dict())
        assert (3, 4) in bloom and (1, 2) not in bloom
        words = np.zeros_like(bloom._words)
        bloom._words = words
        assert bloom.check_and_add((3, 4)) is False
        assert words.any()  # the probe wrote into the rebound array

    def test_copies_and_state_carry_no_view(self):
        bloom = BloomFilter(num_bits=1 << 10)
        bloom.add((1, 2))  # builds the view
        assert set(bloom.state_dict()) == {"words", "count"}
        for clone in (
            copy.deepcopy(bloom),
            pickle.loads(pickle.dumps(bloom)),
        ):
            assert (1, 2) in clone
            clone.add((5, 6))
            assert (5, 6) in clone and (5, 6) not in bloom
        shallow = copy.copy(bloom)
        assert (1, 2) in shallow
