"""Seeded randomness for reproducible experiments."""

from __future__ import annotations

import numpy as np


class RandomSource:
    """Deterministic random stream keyed by (seed, stream_id).

    Two sources built with the same key produce identical draw sequences;
    sources that differ in either part give independent streams.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._gen = np.random.default_rng([self.seed & _MASK64, self.stream_id & _MASK64])

    def __repr__(self):
        return f"RandomSource(seed={self.seed}, stream_id={self.stream_id})"

    def random(self) -> float:
        return float(self._gen.random())

    def uniform(self, low: float, high: float, size=None):
        out = self._gen.uniform(low, high, size=size)
        return float(out) if size is None else out

    def integers(self, low: int, high: int, size=None):
        """Uniform integers in [low, high)."""
        out = self._gen.integers(low, high, size=size)
        return int(out) if size is None else out

    def normal(self, loc=0.0, scale=1.0, size=None):
        out = self._gen.normal(loc, scale, size=size)
        return float(out) if size is None else out

    def randbits(self, bits: int, count: int | None = None):
        """Uniform integer in [0, 2**bits) for arbitrarily large bit counts; with ``count``, a list of them.

        Each value is Generator.bytes(ceil(bits / 8)) without its overhead:
        ceil(bits / 32) uint32 words, their little-endian bytes read
        big-endian, top ``bits`` bits kept. ``count`` values draw all their
        words in one call, the same stream as ``count`` single draws.
        """
        if bits <= 0:
            raise ValueError("bits must be positive")
        nwords = (bits + 31) // 32
        words = self._gen.integers(0, 1 << 32, size=(1 if count is None else count) * nwords, dtype=np.uint32)
        # The big-endian value of a group's 4 * nwords bytes, less the bits past ``bits``.
        drop = 32 * nwords - bits
        if nwords == 1:
            values = (words.byteswap() >> drop).tolist()
        else:
            raw, step = words.astype("<u4").tobytes(), 4 * nwords
            values = [int.from_bytes(raw[i:i + step], "big") >> drop for i in range(0, len(raw), step)]
        return values[0] if count is None else values


_MASK64 = (1 << 64) - 1


def as_random_source(rng) -> RandomSource:
    """Coerce a RandomSource or integer seed into a RandomSource."""
    if isinstance(rng, RandomSource):
        return rng
    if isinstance(rng, (int, np.integer)):
        return RandomSource(int(rng))
    raise TypeError(f"expected RandomSource or int seed, got {type(rng).__name__}")
