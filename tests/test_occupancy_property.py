"""Property tests: counting and deciding agree, and counts are complement-symmetric.

``count_solutions`` runs a frontier dynamic program and ``has_solution``
a propagation search, so the first property checks two independent
algorithms against each other.  The second swaps the roles of 0 and 1:
a solution of r-in-k, complemented, solves (k - r)-in-k on the same
wiring, which checks the DP's digit bounds for r < k/2 and r > k/2
alike.  Families are small (k in 2..6, d in 2..4, n at most 24), so
each case runs in milliseconds; a case past 30 s fails and names its
input.
"""

import math

import pytest

from occuthresh.instances import Configuration, Params, sample_configuration
from occuthresh.occupancy import count_solutions, has_solution

from tests.case_limit import time_limit

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def configurations(draw):
    k, d = draw(st.integers(2, 6)), draw(st.integers(2, 4))
    unit = k // math.gcd(d, k)
    n = unit * draw(st.integers(1, 24 // unit))
    r = draw(st.integers(1, k - 1))
    return sample_configuration(Params(n=n, d=d, k=k, r=r), draw(st.integers(0, 2**64 - 1)))


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(configurations())
def test_count_is_positive_iff_decided_solvable(cfg):
    with time_limit(cfg):
        assert (count_solutions(cfg) > 0) == has_solution(cfg)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(configurations())
def test_count_is_symmetric_under_complement(cfg):
    p = cfg.params
    complement = Configuration(Params(n=p.n, d=p.d, k=p.k, r=p.k - p.r), cfg.wiring)
    with time_limit(cfg):
        assert count_solutions(cfg) == count_solutions(complement)
