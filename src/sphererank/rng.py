"""Deterministic randomness: splitmix64 and blocks of fair bits drawn from it.

splitmix64 uses the standard published constants, so any run is reproducible
from its 64-bit seed alone.  Per-trial streams derive as seed + trial index
pushed through a single splitmix64 step.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """The splitmix64 generator; one next_u64() per state advance."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)


def random_bits(seed: int, count: int) -> int:
    """The first `count` fair bits of seed's splitmix64 word stream, as one int.

    Bit k is the k-th bit drawn: words are consumed LSB first, so the block is
    the words concatenated little-endian.
    """
    gen = SplitMix64(seed)
    words = b"".join(gen.next_u64().to_bytes(8, "little") for _ in range((count + 63) // 64))
    return int.from_bytes(words, "little") & ((1 << count) - 1)


def derive_seed(seed: int, index: int) -> int:
    """Per-trial seed: one splitmix64 step from seed + index (mod 2^64)."""
    return SplitMix64((seed + index) & _MASK64).next_u64()
