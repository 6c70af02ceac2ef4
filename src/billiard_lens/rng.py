"""Deterministic random numbers: splitmix64-seeded xoshiro256**.

Pure-integer implementation so that identical seeds produce bitwise
identical streams on every platform, independent of numpy version.
"""

from __future__ import annotations

import math

_MASK = 0xFFFFFFFFFFFFFFFF


def _splitmix64(state: int):
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, (z ^ (z >> 31)) & _MASK


class Xoshiro256StarStar:
    """xoshiro256** generator seeded from a single 64-bit integer."""

    def __init__(self, seed: int):
        seed = int(seed) & _MASK
        s = []
        for _ in range(4):
            seed, word = _splitmix64(seed)
            s.append(word)
        self._s = s

    def _draws(self, n: int, shift: int, scale) -> list:
        """The next n outputs r of the stream, each as (r >> shift) * scale:
        one loop over the four state words, the rotations written out (the
        output's rotation is reduced mod 2^64 with its product)."""
        s0, s1, s2, s3 = self._s
        out = []
        for _ in range(n):
            x = (s1 * 5) & _MASK
            out.append(((((x << 7) | (x >> 57)) * 9 & _MASK) >> shift) * scale)
            t = (s1 << 17) & _MASK
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & _MASK
        self._s = [s0, s1, s2, s3]
        return out

    def next_u64(self) -> int:
        return self._draws(1, 0, 1)[0]

    def uniforms(self, n: int) -> list:
        """The next n uniform doubles in [0, 1), each with 53 random bits."""
        return self._draws(n, 11, 2.0 ** -53)

    def uniform(self) -> float:
        """One draw of `uniforms`."""
        return self.uniforms(1)[0]

    def unit_angle(self) -> float:
        return 2.0 * math.pi * self.uniform()
