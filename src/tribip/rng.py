"""Seedable 64-bit random stream with a published algorithm.

Heuristic runs must reproduce bit-exactly across platforms, so the random
stream is implemented here instead of relying on a library generator:
xoshiro256** (Blackman & Vigna) with splitmix64 state expansion.  One stream
per run; every stochastic choice of the heuristic draws from it in a
documented order (see `tribip.heuristic`).

The outputs are computed `_BLOCK` at a time with numpy uint64 arrays.  The
state update (xor, shift, rotate) is linear over GF(2), so the state word s1
at step k is the xor, over the set bits b of the 256-bit state, of a fixed
word Q[b, k], and the state after a block is likewise the xor of words R[b].
Both tables are built once, at import, into `_JUMP`.  The ** scrambler works
on each s1 alone, and numpy's uint64 multiply wraps mod 2**64 as the
algorithm requires.  The state is split into bits by shifts, so nothing
depends on byte order.
"""

import operator

import numpy as np

_MASK64 = (1 << 64) - 1
_BLOCK = 256
_SHIFTS = np.arange(64, dtype=np.uint64)


def _jump_table():
    """Row b, started from the unit state with only bit b set: columns
    k < `_BLOCK` hold s1 at step k (Q), the last 4 the state after the
    block (R)."""
    bit = np.arange(256)
    unit = np.zeros((4, 256), dtype=np.uint64)
    unit[bit // 64, bit] = np.uint64(1) << (bit % 64).astype(np.uint64)
    s0, s1, s2, s3 = unit
    table = np.empty((256, _BLOCK + 4), dtype=np.uint64)
    for k in range(_BLOCK):
        table[:, k] = s1
        t = s1 << 17
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = (s3 << 45) | (s3 >> 19)
    table[:, _BLOCK:] = np.stack([s0, s1, s2, s3], axis=1)
    return table


_JUMP = _jump_table()


class Xoshiro256StarStar:
    """xoshiro256** stream seeded from a single integer via splitmix64.

    `next_u64`, `random` and `randint` each take one output of the same
    stream, so calls of all three can be mixed.
    """

    __slots__ = ("_state", "_buf")

    def __init__(self, seed: int):
        s = operator.index(seed) & _MASK64
        state = []
        for _ in range(4):
            s = (s + 0x9E3779B97F4A7C15) & _MASK64
            z = s
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            state.append(z ^ (z >> 31))
        self._state = np.array(state, dtype=np.uint64)
        self._buf: list[int] = []      # pending outputs, the next one last

    def _refill(self) -> None:
        bits = np.flatnonzero((self._state[:, None] >> _SHIFTS) & 1)   # b = 64 * word + bit
        words = np.bitwise_xor.reduce(_JUMP.take(bits, axis=0), axis=0)
        self._state = words[_BLOCK:]
        r = words[:_BLOCK] * 5
        self._buf = (((r << 7) | (r >> 57)) * 9)[::-1].tolist()

    # random and randint take their output inline rather than through
    # next_u64: a second Python call per draw would cost about as much as
    # the draw itself
    def next_u64(self) -> int:
        try:
            return self._buf.pop()
        except IndexError:
            self._refill()
            return self._buf.pop()

    def random(self) -> float:
        """Uniform float in [0, 1) with 53-bit resolution."""
        try:
            u = self._buf.pop()
        except IndexError:
            self._refill()
            u = self._buf.pop()
        return (u >> 11) * 2.0**-53

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n) by 128-bit multiply-shift.

        The (negligible, < 2**-57 for n below a few hundred) modulo bias is
        accepted in exchange for a fixed one-draw-per-call contract.
        """
        n = operator.index(n)
        if n <= 0:
            raise ValueError("randint needs n >= 1")
        try:
            u = self._buf.pop()
        except IndexError:
            self._refill()
            u = self._buf.pop()
        return (u * n) >> 64
