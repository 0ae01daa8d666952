"""Deterministic random number generation.

Every random decision in the toolkit (weight init, batch shuffling, dropout
masks, gradient-check coordinate sampling) draws from one pinned generator so
that runs are reproducible bit-for-bit across processes and platforms:

* core generator: counter-based splitmix64 (Steele, Lea & Flood). A stream
  is a key and a count of words drawn; word i (from 1) is
  ``_mix64(key + i * GOLDEN) mod 2**64``, so ``Prng(s)`` yields exactly the
  splitmix64 sequence started at ``s``. Consecutive draws continue the count,
  and a word depends on its index alone, so a long draw is computed block by
  block (``_BLOCK`` words at a time, in a core's L2 cache) with the same
  words as one whole-array pass;
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
_BLOCK = 1 << 15    # words per block of a draw: 256 KiB


def _mix64(z):
    """splitmix64 output function (finalizer) on a 64-bit Python int or a
    uint64 array (array multiplies wrap mod 2**64 without a warning)."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def _check_size(n: int) -> None:
    if n < 0:
        raise ValueError(f"draw size must be >= 0, got {n}")


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
        _check_size(n)
        out = np.empty(n, dtype=np.uint64)
        for i in range(0, n, _BLOCK):
            z = out[i : i + _BLOCK]
            z[:] = np.arange(self._count + i + 1, self._count + i + len(z) + 1, dtype=np.uint64)
            # _mix64 in place: uint64 multiplies wrap mod 2**64 without a mask
            z *= np.uint64(_GOLDEN)
            z += np.uint64(self._key)
            z ^= z >> np.uint64(30)
            z *= np.uint64(0xBF58476D1CE4E5B9)
            z ^= z >> np.uint64(27)
            z *= np.uint64(0x94D049BB133111EB)
            z ^= z >> np.uint64(31)
        self._count += n
        return out

    def uniform(self, n: int) -> np.ndarray:
        """n doubles in [0, 1): the next n words' top 53 bits, times 2**-53."""
        words = self.uint64(n)
        return np.right_shift(words, np.uint64(11), out=words) * 2.0 ** -53

    def normal(self, n: int) -> np.ndarray:
        """n standard normals: Box-Muller cos/sin pairs from uniform pairs,
        drawn one ``_BLOCK`` at a time."""
        _check_size(n)
        m = (n + 1) // 2
        out = np.empty((m, 2))
        for i in range(0, 2 * m, _BLOCK):
            pairs = self.uniform(min(_BLOCK, 2 * m - i))
            # u1 in (0, 1] so log() stays finite; adding 2**-53 is exact.
            r = np.sqrt(-2.0 * np.log(pairs[0::2] + 2.0 ** -53))
            theta = 2.0 * np.pi * pairs[1::2]
            rows = out[i // 2 : (i + _BLOCK) // 2]
            np.multiply(r, np.cos(theta), out=rows[:, 0])
            np.multiply(r, np.sin(theta), out=rows[:, 1])
        return out.reshape(-1)[:n]

    def permutation(self, n: int) -> np.ndarray:
        """Permutation of range(n): the stable argsort of n fresh words."""
        return np.argsort(self.uint64(n), kind="stable")

    def choice(self, n: int, k: int) -> np.ndarray:
        """k indices sampled without replacement from range(n) (k <= n)."""
        _check_size(min(n, k))
        if k >= n:
            return np.arange(n)
        return self.permutation(n)[:k]
