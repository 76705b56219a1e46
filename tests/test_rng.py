import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tribip import PrConfig, ValidationError, Xoshiro256StarStar
from tribip.rng import _BLOCK

from conftest import NaiveXoshiro256StarStar


def test_oracle_splitmix64_seed_state():
    rng = NaiveXoshiro256StarStar(0)
    assert (rng._s0, rng._s1, rng._s2, rng._s3) == (
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC)


def test_oracle_known_outputs():
    rng = NaiveXoshiro256StarStar(0)
    rng._s0, rng._s1, rng._s2, rng._s3 = 1, 2, 3, 4
    assert [rng.next_u64() for _ in range(4)] == [11520, 0, 1509978240, 1215971899390074240]


_CALLS = 3 * _BLOCK + 1         # crosses at least 3 block boundaries
_segments = st.lists(st.tuples(st.sampled_from(("next_u64", "random", "randint")),
                               st.integers(1, 2**62), st.integers(1, 300)),
                     min_size=1, max_size=12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(-2**70, 2**210), segments=_segments)
@example(seed=0, segments=[("random", 1, 1)])
@example(seed=-1, segments=[("randint", 2**62, 5), ("next_u64", 1, 1)])
@example(seed=2**64 - 1, segments=[("next_u64", 1, _BLOCK - 1), ("randint", 1, 2)])
@example(seed=2**64 + 7, segments=[("randint", 7, 3), ("random", 1, 2)])
@example(seed=2**200, segments=[("next_u64", 1, 1), ("random", 1, 1), ("randint", 3, 1)])
def test_block_stream_matches_oracle(seed, segments):
    """Mixed next_u64/random/randint calls, repeated until more than three
    blocks are used, give the oracle's values call by call."""
    rng, ref = Xoshiro256StarStar(seed), NaiveXoshiro256StarStar(seed)
    calls = itertools.chain.from_iterable(
        itertools.repeat((name, n), count) for name, n, count in itertools.cycle(segments))
    for name, n in itertools.islice(calls, _CALLS):
        args = (n,) if name == "randint" else ()
        assert getattr(rng, name)(*args) == getattr(ref, name)(*args)


def test_numpy_integer_seeds_and_bounds():
    assert [Xoshiro256StarStar(np.int64(3)).randint(np.int64(5)) for _ in range(2)] == \
        [Xoshiro256StarStar(3).randint(5)] * 2
    assert Xoshiro256StarStar(np.uint64(2**64 - 1)).next_u64() == \
        NaiveXoshiro256StarStar(2**64 - 1).next_u64()
    rng = Xoshiro256StarStar(0)
    with pytest.raises(TypeError):
        Xoshiro256StarStar(3.0)
    with pytest.raises(TypeError):
        rng.randint(5.0)
    for n in (0, -1, np.int64(0)):
        with pytest.raises(ValueError):
            rng.randint(n)
    # refused bounds take no draw
    assert rng.next_u64() == NaiveXoshiro256StarStar(0).next_u64()
    config = PrConfig(seed=np.int64(3))
    assert config.seed == 3 and type(config.seed) is int
    for seed in (3.0, "3", None):
        with pytest.raises(ValidationError):
            PrConfig(seed=seed)
