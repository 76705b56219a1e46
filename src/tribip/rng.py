"""Seedable 64-bit random stream with a published algorithm.

Heuristic runs must reproduce bit-exactly across platforms, so the random
stream is implemented here instead of relying on a library generator:
xoshiro256** (Blackman & Vigna) with splitmix64 state expansion.  One stream
per run; every stochastic choice of the heuristic draws from it in a
documented order (see `tribip.heuristic`).

The outputs are computed `_BLOCK` at a time, on `_LANES` lanes that each run
`_STEPS` steps of the recurrence: lane l takes stream positions l * _STEPS
up to (l + 1) * _STEPS.  Each state word is one Python int that holds all
lanes side by side, lane l in bits 64l to 64l + 63, so one xor acts on every
lane at once; the shift by 17 and the rotation by 45 are masked per lane so
that no bit crosses into a neighbour.  The state update is linear over
GF(2), so lane l's start, the state after l * _STEPS steps, is the xor, over
the set bits b of the 256-bit state, of fixed words: row b of the lane-start
table (`_lane_starts`, 256 KiB).  The first stream made in the process
builds it, not the import, by running all 256 unit states side by side; a
run that makes its stream before its clock starts keeps the build out of
its time.  The last lane ends where the next block starts.  The **
scrambler works on each s1 alone in numpy, whose uint64 multiply wraps mod
2**64 as the algorithm requires.  Ints and arrays meet only as
little-endian bytes, so nothing depends on the platform's byte order.
"""

import operator

import numpy as np

_MASK64 = (1 << 64) - 1
_LANES = 32
_STEPS = 64                     # per lane and block
_BLOCK = _LANES * _STEPS
_lane_starts = None             # (256, 4, _LANES) words, built by the first stream


def _lane_masks(lanes: int) -> tuple[int, int, int]:
    """For `lanes` packed lanes: the bits that `<< 17` keeps in each lane, and
    the high 19 and low 45 bits of each lane, which `<< 45` and `>> 19` fill."""
    def per_lane(word):
        return int.from_bytes(np.full(lanes, word, dtype="<u8").tobytes(), "little")
    low45 = (1 << 45) - 1
    return per_lane(_MASK64 ^ ((1 << 17) - 1)), per_lane(_MASK64 ^ low45), per_lane(low45)


_MASKS = _lane_masks(_LANES)


def _advance(words, masks, steps: int, seen: list):
    """The packed state words after `steps` steps of every lane; appends the
    s1 word of each step, before it is taken, to `seen`."""
    s0, s1, s2, s3 = words
    keep17, high19, low45 = masks
    for _ in range(steps):
        seen.append(s1)
        t = (s1 << 17) & keep17
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) & high19) | ((s3 >> 19) & low45)
    return s0, s1, s2, s3


def _words(rows: np.ndarray) -> list[int]:
    """Each row of uint64 words as one packed int, word l in bits 64l up."""
    return [int.from_bytes(row.astype("<u8", copy=False).tobytes(), "little") for row in rows]


def _build_lane_starts() -> np.ndarray:
    """Entry [b, w, l]: word w of the state that starts from the unit state
    with only bit b set (b = 64 * word + bit) and takes l * _STEPS steps."""
    bit = np.arange(256)
    unit = np.zeros((4, 256), dtype="<u8")
    unit[bit // 64, bit] = np.uint64(1) << (bit % 64).astype(np.uint64)
    words, masks = _words(unit), _lane_masks(256)       # the 256 unit states as lanes
    table = np.empty((256, 4, _LANES), dtype="<u8")
    for lane in range(_LANES):
        if lane:
            words = _advance(words, masks, _STEPS, [])
        table[:, :, lane] = np.frombuffer(b"".join(w.to_bytes(8 * 256, "little") for w in words),
                                          dtype="<u8").reshape(4, 256).T
    return table


class Xoshiro256StarStar:
    """xoshiro256** stream seeded from a single integer via splitmix64.

    `next_u64`, `random` and `randint` each take one output of the same
    stream, so calls of all three can be mixed.
    """

    __slots__ = ("_state", "_buf")

    def __init__(self, seed: int):
        global _lane_starts
        s = operator.index(seed) & _MASK64
        state = []
        for _ in range(4):
            s = (s + 0x9E3779B97F4A7C15) & _MASK64
            z = s
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            state.append(z ^ (z >> 31))
        self._state = np.array(state, dtype="<u8")
        self._buf: list[int] = []      # pending outputs, the next one last
        if _lane_starts is None:
            _lane_starts = _build_lane_starts()

    def _refill(self) -> None:
        bits = np.flatnonzero(np.unpackbits(self._state.view(np.uint8), bitorder="little"))
        starts = np.bitwise_xor.reduce(_lane_starts.take(bits, axis=0), axis=0)
        seen = []
        words = _advance(_words(starts), _MASKS, _STEPS, seen)
        last = 64 * (_LANES - 1)
        self._state = np.array([w >> last for w in words], dtype="<u8")
        s1 = np.frombuffer(b"".join([w.to_bytes(8 * _LANES, "little") for w in seen]),
                           dtype="<u8").reshape(_STEPS, _LANES)
        r = s1[::-1, ::-1].T * 5                        # latest position first
        self._buf = (((r << 7) | (r >> 57)) * 9).ravel().tolist()

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

        Each result takes either floor(2**64 / n) or ceil(2**64 / n) of the
        2**64 outputs, so its probability is off from 1/n by a relative bias
        of at most n / 2**64.  Pair selection draws with n = |IR|, about
        5.4e5 at most for PRdif at knapsack n=100, where the bias stays below
        2**-44.  It is accepted in exchange for a fixed one-draw-per-call
        contract.
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
