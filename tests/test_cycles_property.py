"""Property tests: the wedge census (l <= 2) and the half-walk join
(l >= 3) equal the recursive walk oracle.

Families are small (d in 2..5, k in 2..6, n at most 3 times the least n
with k | d*n), so their configurations are full of parallel edges and
repeated constraints.  Each case censuses one block of consecutive child
seeds, of a drawn size, as ``census_samples`` does.
"""

import math

import pytest

from occuthresh import cycles
from occuthresh.instances import Configuration, Params, _sample_block, count_two_cycles

from tests.case_limit import time_limit
from tests.oracles import census_walk_reference

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def blocks(draw):
    d, k = draw(st.integers(2, 5)), draw(st.integers(2, 6))
    n = k // math.gcd(d, k) * draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**64 - 1))
    start, rows = draw(st.integers(0, 1000)), draw(st.integers(1, 6))
    return Params(n=n, d=d, k=k, r=1), seed, range(start, start + rows)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(blocks(), st.integers(1, 2))
def test_wedge_census_matches_walk_reference(block, l_max):
    params, seed, seeds = block
    wirings = _sample_block(params, seed, seeds)
    got = cycles._census_pairs(params, wirings, l_max)
    assert got.shape == (len(seeds), l_max)
    for row, wiring in zip(got.tolist(), wirings):
        cfg = Configuration(params, wiring)
        want = census_walk_reference(cfg, l_max)
        assert tuple(row) == want
        assert count_two_cycles(cfg) == want[0]


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(blocks(), st.integers(3, 6))
def test_walk_census_matches_walk_reference(block, l_max):
    params, seed, seeds = block
    # The oracle's recursion takes up to this walk bound per wiring, seconds
    # past 10^7; 9 in 10 (family, l_max) pairs are under 10^6.
    hypothesis.assume(params.n_slots * ((params.k - 1) * (params.d - 1)) ** (l_max - 1) <= 10**6)
    with time_limit((block, l_max)):
        for wiring in _sample_block(params, seed, seeds):
            cfg = Configuration(params, wiring)
            assert cycles._census_walk(params, wiring, l_max) == census_walk_reference(cfg, l_max)
