"""Tests for the PCG64 stream behind the mask search's random starts."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oamsim import pcg64
from oamsim.angular import TWO_PI


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 300), size=st.integers(min_value=1, max_value=32))
@example(seed=0, size=1)
@example(seed=2 ** 32 - 1, size=2)
@example(seed=2 ** 32, size=5)
@example(seed=2 ** 64, size=8)
@example(seed=2 ** 128 - 1, size=16)
@example(seed=2 ** 128, size=31)
@example(seed=3 ** 200, size=32)  # ten 32-bit words, six past the hash's pool
def test_uniform_is_default_rng_uniform(seed, size):
    got = pcg64.uniform([seed], 0.0, TWO_PI, size)
    assert got.shape == (1, size)
    assert np.array_equal(got[0], np.random.default_rng(seed).uniform(0.0, TWO_PI, size))


@settings(max_examples=50, deadline=None)
@given(seeds=st.lists(st.one_of(st.integers(min_value=0, max_value=2 ** 40),
                                st.integers(min_value=0, max_value=2 ** 200)),
                      min_size=1, max_size=8),
       size=st.integers(min_value=1, max_value=8))
@example(seeds=[2 ** 128 - 1, 2 ** 128, 2 ** 160, 0], size=3)
def test_each_row_of_a_batch_is_its_seed_alone(seeds, size):
    # seeds of different word counts share one hash and one LCG integer
    got = pcg64.uniform(seeds, 0.0, TWO_PI, size)
    for seed, row in zip(seeds, got):
        assert np.array_equal(row, pcg64.uniform([seed], 0.0, TWO_PI, size)[0])


def test_two_start_vectors_are_pinned():
    # the first start of a 2-sector search at seed 0, and the last of a
    # 3-sector search at seed 2**130, as they were drawn when the search used
    # numpy's generator
    assert pcg64.uniform([0], 0.0, TWO_PI, 4)[0].tolist() == [float.fromhex(h) for h in (
        "0x1.002332afaea2fp+2", "0x1.b1f360f9fd6f8p+0", "0x1.079f76badd9d6p-2",
        "0x1.a95aa12b4c1c2p-4")]
    assert pcg64.uniform([2 ** 130 * 7919 + 63], 0.0, TWO_PI, 6)[0].tolist() == [
        float.fromhex(h) for h in (
            "0x1.7d46bcfb49833p+2", "0x1.33c9e7ee9f260p+1", "0x1.1aee5362c15c6p+2",
            "0x1.969c7cfaaa7eap+1", "0x1.160e4ffd9e9c1p+0", "0x1.1fd6df220a0fdp+2")]
