"""Counter-based deterministic randomness for reproducible sweeps.

All randomness in the package is derived from a single integer seed through
SHA-256 of (key, counter) blocks, so runs are bit-reproducible across
platforms and Python versions.  Each block is read as four big-endian
64-bit words, in order, by one struct unpack into a buffer that every
draw pops from.  A span of at most 2**64 takes one word per try, rejected
above the largest multiple of the span below 2**64; larger spans take as
many words per try as they need, high word first.
"""

from __future__ import annotations

import hashlib
import struct

_U64 = 1 << 64
_WORDS = struct.Struct(">4Q").unpack  # the four words of a block, in order
_COUNTER = struct.Struct(">Q").pack


class DeterministicStream:
    """Deterministic stream of 64-bit integers keyed by seed and label."""

    def __init__(self, seed: int, label: str = ""):
        material = f"heyde:{label}:{int(seed)}".encode()
        self._key = hashlib.sha256(material).digest()
        self._counter = 0
        self._buffer: list[int] = []  # the rest of the block, next word last

    def derive(self, label: str) -> "DeterministicStream":
        """Independent substream; drawing from one never affects the other."""
        child = object.__new__(DeterministicStream)
        child._key = hashlib.sha256(self._key + b"/" + label.encode()).digest()
        child._counter = 0
        child._buffer = []
        return child

    def _refill(self) -> list[int]:
        """Read the next block into the buffer, which is empty, and return it."""
        block = hashlib.sha256(self._key + _COUNTER(self._counter)).digest()
        self._counter += 1
        w0, w1, w2, w3 = _WORDS(block)
        buffer = self._buffer = [w3, w2, w1, w0]
        return buffer

    def next_u64(self) -> int:
        return (self._buffer or self._refill()).pop()

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends included."""
        span = hi - lo + 1
        if span <= 0:
            raise ValueError(f"empty range [{lo}, {hi}]")
        if span <= _U64:
            limit = _U64 - _U64 % span
            while True:
                u = (self._buffer or self._refill()).pop()
                if u < limit:
                    return lo + u % span
        # Each try draws as many 64-bit words as the span needs, high word first.
        space, extra = _U64, 0
        while space < span:
            space, extra = space << 64, extra + 1
        limit = space - (space % span)
        while True:
            u = self.next_u64()
            for _ in range(extra):
                u = (u << 64) | self.next_u64()
            if u < limit:
                return lo + (u % span)

    def choice(self, seq):
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[self.randint(0, len(seq) - 1)]

    def distinct(self, n: int, k: int) -> list[int]:
        """k distinct integers from [0, n), in increasing order.

        Each value is a randint(0, n - 1) draw, repeats dropped; for
        n <= 2**64 the words are read from the buffer here, against a
        rejection limit computed once.
        """
        if not 0 <= k <= n:
            raise ValueError(f"cannot draw {k} distinct values from {n}")
        if not k:
            return []
        picked: set[int] = set()
        if n > _U64:
            while len(picked) < k:
                picked.add(self.randint(0, n - 1))
            return sorted(picked)
        limit = _U64 - _U64 % n
        add = picked.add
        buffer = self._buffer
        while len(picked) < k:
            if not buffer:
                buffer = self._refill()
            u = buffer.pop()
            if u < limit:
                add(u % n)
        return sorted(picked)
