"""Deterministic random number generation.

Every random decision in the toolkit (weight init, batch shuffling, dropout
masks, gradient-check coordinate sampling) draws from one pinned generator so
that runs are reproducible bit-for-bit across processes and platforms:

* core generator: xoshiro256** (Blackman & Vigna), 64-bit outputs;
* state seeding: the four state words are the first four outputs of a
  splitmix64 stream started at the seed;
* uniform doubles: top 53 bits of an output, ``(x >> 11) * 2**-53``;
* normals: Box-Muller pairs from consecutive uniforms, cos then sin;
* bounded integers for shuffles: ``next() % n`` (modulo bias is irrelevant
  at the sizes used here and keeps the recipe one line);
* sub-streams: ``Prng.derive(seed, *lane)`` hashes the seed and lane
  integers through splitmix64's finalizer. Lanes used by this package:
  (0,) weight init, (1, epoch) batch shuffles, (2, iteration) dropout,
  (3,) gradient-check coordinate sampling.
"""

from __future__ import annotations

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    """splitmix64 output function (finalizer) on a 64-bit value."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def _splitmix64(state: int):
    """Infinite splitmix64 stream starting at ``state``."""
    while True:
        state = (state + _GOLDEN) & _MASK
        yield _mix64(state)


class Prng:
    """xoshiro256** stream seeded via splitmix64."""

    def __init__(self, seed: int):
        sm = _splitmix64(seed & _MASK)
        self._s = [next(sm) for _ in range(4)]

    @classmethod
    def derive(cls, seed: int, *lane: int) -> "Prng":
        """Independent sub-stream for (seed, lane...)."""
        key = _mix64(seed & _MASK)
        for k in lane:
            key = _mix64(key ^ ((k & _MASK) + _GOLDEN))
        return cls(key)

    def next_uint64(self) -> int:
        s = self._s
        r = (s[1] * 5) & _MASK
        r = ((r << 7) | (r >> 57)) & _MASK
        r = (r * 9) & _MASK
        t = (s[1] << 17) & _MASK
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = ((s[3] << 45) | (s[3] >> 19)) & _MASK
        return r

    def uint64(self, n: int) -> np.ndarray:
        """n raw 64-bit outputs as a uint64 array."""
        out = np.empty(n, dtype=np.uint64)
        nxt = self.next_uint64
        for i in range(n):
            out[i] = nxt()
        return out

    def uniform(self, n: int) -> np.ndarray:
        """n doubles in [0, 1)."""
        bits = self.uint64(n)
        return (bits >> np.uint64(11)).astype(np.float64) * 2.0 ** -53

    def normal(self, n: int) -> np.ndarray:
        """n standard normals (Box-Muller, cos/sin pairs from uniform pairs)."""
        m = (n + 1) // 2
        bits = self.uint64(2 * m)
        # u1 in (0, 1] so log() stays finite; u2 in [0, 1).
        u1 = ((bits[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53
        u2 = (bits[1::2] >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.empty(2 * m, dtype=np.float64)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n)."""
        perm = np.arange(n)
        for i in range(n - 1, 0, -1):
            j = self.next_uint64() % (i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return perm

    def choice(self, n: int, k: int) -> np.ndarray:
        """k indices sampled without replacement from range(n) (k <= n)."""
        if k >= n:
            return np.arange(n)
        return self.permutation(n)[:k]
