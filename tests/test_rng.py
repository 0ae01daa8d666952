import zlib

import numpy as np
import pytest

from emotionforge.nn import init_params
from emotionforge.rng import _BLOCK, _GOLDEN, _mix64, Prng
from helpers import traced_peak


def _splitmix64(state: int):
    """Infinite scalar splitmix64 stream starting at ``state``, one Python int
    at a time: the oracle that ``Prng`` reproduces."""
    mask = 2**64 - 1
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = (state ^ (state >> 30)) * 0xBF58476D1CE4E5B9 & mask
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
        yield z ^ (z >> 31)


class WholeArrayPrng(Prng):
    """Each draw as one whole-array numpy expression: the oracle that the
    block-wise draws of ``Prng`` reproduce bit for bit."""

    def uint64(self, n):
        i = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        return _mix64(np.uint64(self._key) + i * np.uint64(_GOLDEN))

    def uniform(self, n):
        return (self.uint64(n) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53

    def normal(self, n):
        m = (n + 1) // 2
        u = self.uniform(2 * m)
        r = np.sqrt(-2.0 * np.log(u[0::2] + 2.0 ** -53))
        theta = 2.0 * np.pi * u[1::2]
        out = np.empty(2 * m, dtype=np.float64)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]


def test_splitmix64_reference_vector():
    # published reference outputs for splitmix64 seeded with 1234567
    s = _splitmix64(1234567)
    assert [next(s) for _ in range(3)] == [
        6457827717110365317, 3203168211198807973, 9817491932198370423]


def test_stream_determinism():
    a = Prng(42).uint64(16)
    b = Prng(42).uint64(16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, Prng(43).uint64(16))


def test_derive_lanes_are_independent():
    base = Prng.derive(5, 1, 0).uint64(8)
    assert not np.array_equal(base, Prng.derive(5, 1, 1).uint64(8))
    assert not np.array_equal(base, Prng.derive(5, 2, 0).uint64(8))
    assert np.array_equal(base, Prng.derive(5, 1, 0).uint64(8))


def test_uniform_bounds_and_mean():
    u = Prng(7).uniform(50_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01


def test_normal_moments():
    z = Prng(8).normal(50_001)  # odd count exercises the pair trimming
    assert len(z) == 50_001
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def test_permutation_is_a_permutation():
    perm = Prng(9).permutation(100)
    assert sorted(perm.tolist()) == list(range(100))
    assert np.array_equal(perm, Prng(9).permutation(100))


def test_choice_without_replacement():
    picks = Prng(10).choice(1000, 50)
    assert len(picks) == 50 and len(set(picks.tolist())) == 50
    assert np.array_equal(Prng(11).choice(5, 10), np.arange(5))


SEEDS = [0, 1, 42, 1234567, 2**63, 2**64 - 2, 2**64 - 1]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("k", [0, 1, 2, 17])
def test_uint64_is_the_scalar_splitmix64_stream(seed, k):
    ref = _splitmix64(seed)
    expect = [next(ref) for _ in range(k)]
    got = Prng(seed).uint64(k)
    assert got.dtype == np.uint64 and got.tolist() == expect


def test_consecutive_draws_continue_one_stream():
    p = Prng(2**64 - 3)
    assert np.array_equal(np.concatenate([p.uint64(3), p.uint64(4)]),
                          Prng(2**64 - 3).uint64(7))
    p = Prng(77)
    assert np.array_equal(np.concatenate([p.uniform(5), p.uniform(0), p.uniform(6)]),
                          Prng(77).uniform(11))
    p = Prng(78)
    assert np.array_equal(np.concatenate([p.normal(4), p.normal(6)]), Prng(78).normal(10))


def test_recipe_golden_pins():
    # Pinned outputs of the recipe: changing any of them changes every model byte.
    assert Prng.derive(0, 0).uint64(4).tolist() == [
        12035550249420947055, 12935080325729570654,
        7141179953334974231, 12108695660851890438]
    crc = 0
    for w in init_params(0, input_hw=16).weights:
        crc = zlib.crc32(w.tobytes(), crc)
    assert crc == 0x2267A657


@pytest.mark.parametrize("draw", ["uint64", "uniform", "normal", "permutation"])
@pytest.mark.parametrize("n", [0, 1, 2, 3, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
@pytest.mark.parametrize("first", [0, 3])
def test_block_wise_draws_equal_whole_array_draws(draw, n, first):
    seed = 2**64 - 5
    got, want = Prng(seed), WholeArrayPrng(seed)
    got.uint64(first), want.uint64(first)
    a, b = getattr(got, draw)(n), getattr(want, draw)(n)
    assert a.dtype == b.dtype and a.shape == b.shape == (n,)
    assert a.tobytes() == b.tobytes()
    assert got.uint64(2).tolist() == want.uint64(2).tolist()


def test_normal_holds_no_whole_draw_uniform_array():
    n = 2**21  # fc1's weights
    # the 16 MiB output and one block of uniforms; all 2n uniforms at once
    # would take the peak to ~32.5 MiB
    assert traced_peak(lambda: Prng(0).normal(n)) <= 8 * n + 2 * 2**20


@pytest.mark.parametrize("n", [0, 1, 2, 5, 2 * _BLOCK - 1])
def test_normal_consumes_one_word_per_normal_rounded_up_to_pairs(n):
    p = Prng(99)
    p.normal(n)
    ref = _splitmix64(99)
    words = [next(ref) for _ in range(2 * ((n + 1) // 2) + 1)]
    assert p.uint64(1).tolist() == words[-1:]


@pytest.mark.parametrize("seed, want", [(0, 0x38F759AE), (7, 0x342EB627)])
def test_init_params_golden_pins_at_full_size(seed, want):
    # fc1 alone is 2.1 M normals, so these draws cross many block edges
    crc = 0
    for w in init_params(seed, input_hw=128).weights:
        crc = zlib.crc32(w.tobytes(), crc)
    assert crc == want


@pytest.mark.parametrize("method, args", [
    ("uint64", (-1,)), ("uniform", (-2,)), ("normal", (-3,)), ("permutation", (-1,)),
    ("choice", (-4, 2)), ("choice", (4, -1))])
def test_negative_draw_size_is_rejected_before_the_stream_moves(method, args):
    p = Prng(5)
    p.uint64(3)
    with pytest.raises(ValueError):
        getattr(p, method)(*args)
    assert p.uint64(2).tolist() == Prng(5).uint64(5).tolist()[3:]
