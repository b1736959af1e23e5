"""Counter-based deterministic randomness for reproducible sweeps.

All randomness in the package is derived from a single integer seed through
SHA-256 of (key, counter) blocks, so runs are bit-reproducible across
platforms and Python versions.
"""

from __future__ import annotations

import hashlib

_U64 = 1 << 64


class DeterministicStream:
    """Deterministic stream of 64-bit integers keyed by seed and label."""

    def __init__(self, seed: int, label: str = ""):
        material = f"heyde:{label}:{int(seed)}".encode()
        self._key = hashlib.sha256(material).digest()
        self._counter = 0
        self._buffer: list[int] = []

    def derive(self, label: str) -> "DeterministicStream":
        """Independent substream; drawing from one never affects the other."""
        child = object.__new__(DeterministicStream)
        child._key = hashlib.sha256(self._key + b"/" + label.encode()).digest()
        child._counter = 0
        child._buffer = []
        return child

    def next_u64(self) -> int:
        if not self._buffer:
            block = hashlib.sha256(self._key + self._counter.to_bytes(8, "big")).digest()
            self._counter += 1
            self._buffer = [int.from_bytes(block[i : i + 8], "big") for i in (24, 16, 8, 0)]
        return self._buffer.pop()

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends included."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        # Each try draws as many 64-bit words as the span needs, high word
        # first.  A span of at most 2**64 draws one, so seeded streams stay fixed.
        space, extra = _U64, 0
        while space < span:
            space, extra = space << 64, extra + 1
        limit = space - (space % span)
        while True:
            u = self.next_u64()
            if extra:
                for _ in range(extra):
                    u = (u << 64) | self.next_u64()
            if u < limit:
                return lo + (u % span)

    def choice(self, seq):
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[self.randint(0, len(seq) - 1)]

    def distinct(self, n: int, k: int) -> list[int]:
        """k distinct integers from [0, n), in increasing order."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot draw {k} distinct values from {n}")
        picked: set[int] = set()
        while len(picked) < k:
            picked.add(self.randint(0, n - 1))
        return sorted(picked)
