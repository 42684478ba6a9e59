"""Property test: every row of a batched shuffle is its seed's scalar Fisher-Yates.

Blocks of 1 to 16 full 64-bit seeds at n = 2 .. 3000 are drawn on the
true SplitMix64 stream, on a stream that rejects draws of odd seeds, and
on a stream whose every step picks the slot below it.  A case that runs
past 30 s (a jump loop that never empties) fails and names its input.
"""

import pytest

from occuthresh import instances
from occuthresh.instances import splitmix64_outputs

from tests.case_limit import time_limit
from tests.oracles import fisher_yates_reference
from tests.test_instances import _stream_of_picks, _stream_rejecting_odd_seeds

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
@hypothesis.given(
    st.integers(2, 3000),
    st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=16),
    st.sampled_from(["true stream", "rejecting odd seeds", "previous"]),
)
def test_batched_rows_match_scalar_reference(n, seeds, stream):
    """Each row of a drawn block is its seed's scalar Fisher-Yates permutation.

    The "previous" stream makes every step pick the slot below it: one
    chain through all n slots, which keeps the pointer jumping going to
    its last round.
    """
    outputs = {
        "true stream": splitmix64_outputs,
        "rejecting odd seeds": _stream_rejecting_odd_seeds,
        "previous": _stream_of_picks("previous", n),
    }[stream]
    with time_limit((n, seeds, stream)), pytest.MonkeyPatch.context() as patch:
        patch.setattr(instances, "splitmix64_outputs", outputs)
        got = instances._permutations(seeds, n)
        assert got.shape == (len(seeds), n)
        for seed, row in zip(seeds, got):
            assert row.tobytes() == fisher_yates_reference(seed, n, outputs).tobytes(), seed
