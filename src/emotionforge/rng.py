"""Deterministic random number generation.

Every random decision in the toolkit (weight init, batch shuffling, dropout
masks, gradient-check coordinate sampling) draws from one pinned generator so
that runs are reproducible bit-for-bit across processes and platforms:

* core generator: counter-based splitmix64 (Steele, Lea & Flood). A stream
  is a key and a count of words drawn; word i (from 1) is
  ``_mix64(key + i * GOLDEN) mod 2**64``, so ``Prng(s)`` yields exactly the
  splitmix64 sequence started at ``s`` and a whole draw is one numpy
  expression. Consecutive draws continue the count;
* uniform doubles: top 53 bits of a word, ``(x >> 11) * 2**-53``;
* normals: Box-Muller from consecutive uniform pairs ``(u1, u2)``, with
  ``u1 + 2**-53`` in (0, 1] under the log, cos then sin;
* permutations: the stable argsort of n fresh words;
* sub-streams: ``Prng.derive(seed, *lane)`` hashes the seed and lane
  integers through splitmix64's finalizer into a key. Lanes used by this
  package: (0,) weight init, (1, epoch) batch shuffles, (2, iteration)
  dropout, (3,) gradient-check coordinate sampling.
"""

from __future__ import annotations

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z):
    """splitmix64 output function (finalizer) on a 64-bit Python int or a
    uint64 array (array multiplies wrap mod 2**64 without a warning)."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def _splitmix64(state: int):
    """Infinite scalar splitmix64 stream starting at ``state`` (the reference
    that ``Prng`` reproduces)."""
    while True:
        state = (state + _GOLDEN) & _MASK
        yield _mix64(state)


class Prng:
    """Counter-based splitmix64 stream with state ``(key, count)``."""

    def __init__(self, seed: int):
        self._key = seed & _MASK
        self._count = 0

    @classmethod
    def derive(cls, seed: int, *lane: int) -> "Prng":
        """Independent sub-stream for (seed, lane...)."""
        key = _mix64(seed & _MASK)
        for k in lane:
            key = _mix64(key ^ ((k & _MASK) + _GOLDEN))
        return cls(key)

    def uint64(self, n: int) -> np.ndarray:
        """The next n 64-bit words as a uint64 array."""
        i = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        return _mix64(np.uint64(self._key) + i * np.uint64(_GOLDEN))

    def uniform(self, n: int) -> np.ndarray:
        """n doubles in [0, 1)."""
        return (self.uint64(n) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53

    def normal(self, n: int) -> np.ndarray:
        """n standard normals (Box-Muller, cos/sin pairs from uniform pairs)."""
        m = (n + 1) // 2
        u = self.uniform(2 * m)
        # u1 in (0, 1] so log() stays finite; adding 2**-53 is exact.
        r = np.sqrt(-2.0 * np.log(u[0::2] + 2.0 ** -53))
        theta = 2.0 * np.pi * u[1::2]
        out = np.empty(2 * m, dtype=np.float64)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]

    def permutation(self, n: int) -> np.ndarray:
        """Permutation of range(n): the stable argsort of n fresh words."""
        return np.argsort(self.uint64(n), kind="stable")

    def choice(self, n: int, k: int) -> np.ndarray:
        """k indices sampled without replacement from range(n) (k <= n)."""
        if k >= n:
            return np.arange(n)
        return self.permutation(n)[:k]
