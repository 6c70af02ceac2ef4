import pytest

from billiard_lens.rng import Xoshiro256StarStar


def test_same_seed_same_stream():
    a = Xoshiro256StarStar(12345)
    b = Xoshiro256StarStar(12345)
    assert [a.next_u64() for _ in range(64)] == [b.next_u64() for _ in range(64)]


def test_different_seeds_differ():
    a = Xoshiro256StarStar(1)
    b = Xoshiro256StarStar(2)
    assert [a.next_u64() for _ in range(8)] != [b.next_u64() for _ in range(8)]


def test_uniform_range_and_mean():
    gen = Xoshiro256StarStar(7)
    xs = [gen.uniform() for _ in range(20000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    mean = sum(xs) / len(xs)
    assert abs(mean - 0.5) < 0.01


def test_frozen_regression_vector():
    # cross-platform determinism contract: these values must never change
    gen = Xoshiro256StarStar(0)
    assert [gen.next_u64() for _ in range(4)] == [
        11091344671253066420,
        13793997310169335082,
        1900383378846508768,
        7684712102626143532,
    ]


def _reference_stream(seed: int, n: int) -> list:
    """n outputs of xoshiro256** as its authors write it (Blackman and Vigna),
    a rotation per call, seeded by splitmix64."""
    mask = (1 << 64) - 1

    def rotl(x, k):
        return ((x << k) | (x >> (64 - k))) & mask

    s, x = [], seed
    for _ in range(4):
        x = (x + 0x9E3779B97F4A7C15) & mask
        z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        s.append(z ^ (z >> 31))
    out = []
    for _ in range(n):
        out.append((rotl((s[1] * 5) & mask, 7) * 9) & mask)
        t = (s[1] << 17) & mask
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = rotl(s[3], 45)
    return out


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_a_block_of_draws_is_the_scalar_stream(seed):
    # a block of uniforms is the same stream as one draw at a time, and both
    # are the reference generator's outputs r as (r >> 11) 2^-53; a stream
    # goes on alike after a block
    reference = _reference_stream(seed, 2001)
    block, scalar = Xoshiro256StarStar(seed), Xoshiro256StarStar(seed)
    assert block.uniforms(1000) == [scalar.uniform() for _ in range(1000)] == [
        (r >> 11) * 2.0**-53 for r in reference[:1000]]
    assert block.uniforms(0) == []
    assert block.uniforms(1000) == [(r >> 11) * 2.0**-53 for r in reference[1000:2000]]
    assert block.next_u64() == reference[2000]
