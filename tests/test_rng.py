import zlib

import numpy as np
import pytest

from emotionforge.nn import init_params
from emotionforge.rng import Prng


def _splitmix64(state: int):
    """Infinite scalar splitmix64 stream starting at ``state``, one Python int
    at a time: the oracle that ``Prng`` reproduces."""
    mask = 2**64 - 1
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = (state ^ (state >> 30)) * 0xBF58476D1CE4E5B9 & mask
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
        yield z ^ (z >> 31)


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
