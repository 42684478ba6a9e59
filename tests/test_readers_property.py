"""Property tests of the ``key = value`` documents.

The document readers return a result or raise an OccuthreshError.
Fields are drawn past every range the readers accept: negative and
zero integers, integers of 2^64 and beyond, and lists mixing integers
with nan, inf and other floats.  A document that takes past 30 s fails
and is named.

``read_fields`` reads back what ``format_fields`` wrote, bit for bit.
"""

import math

import numpy as np
import pytest

from occuthresh.errors import OccuthreshError
from occuthresh.instances import deserialize, format_fields, read_fields
from occuthresh.sdpi import parse_channel

from tests.case_limit import time_limit

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

INTEGERS = st.one_of(
    st.integers(-2, 4),
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**63 - 1, 2**63, 2**64, 2**64 + 1, 10**20, -(2**64)]),
)
NUMBERS = st.one_of(
    INTEGERS, st.floats(0.0, 1.0), st.floats(allow_nan=True, allow_infinity=True)
)


def _document(keys, values) -> str:
    lines = []
    for key, value in zip(keys, values):
        if isinstance(value, list):
            value = "[" + ", ".join(str(v) for v in value) + "]"
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _list(draw, declared: int, cap: int):
    # Half the time the length the other fields declare, where it is small.
    if 0 <= declared <= cap and draw(st.booleans()):
        size = declared
    else:
        size = draw(st.integers(0, cap))
    return draw(st.lists(NUMBERS, min_size=size, max_size=size))


@st.composite
def configuration_documents(draw):
    n, d, k, r, m = (draw(INTEGERS) for _ in range(5))
    wiring = _list(draw, d * n, 16)
    return _document(("n", "d", "k", "r", "m", "wiring"), [n, d, k, r, m, wiring])


@st.composite
def channel_documents(draw):
    n_in, n_out = draw(INTEGERS), draw(INTEGERS)
    matrix, p_star = _list(draw, n_in * n_out, 16), _list(draw, n_in, 4)
    return _document(("n_in", "n_out", "matrix", "p_star"), [n_in, n_out, matrix, p_star])


def _reads_or_refuses(reader, text):
    try:
        with time_limit(text):
            reader(text)
    except OccuthreshError:
        pass


@hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
@hypothesis.given(configuration_documents())
def test_deserialize_returns_or_raises_occuthresh_error(text):
    _reads_or_refuses(deserialize, text)


@hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
@hypothesis.given(channel_documents())
def test_parse_channel_returns_or_raises_occuthresh_error(text):
    _reads_or_refuses(parse_channel, text)


INT64 = st.integers(-(2**63 - 1), 2**63 - 1)
FLOATS = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([-0.0, 5e-324, 2.2250738585072009e-308, 1e308, math.inf, -math.inf, math.nan]),
)
# (kind, value) pairs, the value as a writer's caller holds it
FIELDS = st.lists(
    st.one_of(
        INT64.map(lambda v: (int, v)),
        INT64.map(lambda v: (int, np.int64(v))),
        st.lists(INT64, max_size=8).map(lambda v: ([int], np.array(v, dtype=np.int64))),
        st.lists(FLOATS, max_size=8).map(lambda v: ([float], np.array(v, dtype=float))),
    ),
    max_size=6,
)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(FIELDS)
def test_read_fields_reads_back_format_fields(fields):
    kinds = {f"key{i}": kind for i, (kind, _) in enumerate(fields)}
    lines = format_fields(zip(kinds, (value for _, value in fields)))
    values, line_of = read_fields("\n".join(lines) + "\n", kinds)
    for lineno, (key, (kind, value)) in enumerate(zip(kinds, fields), start=1):
        back = values[key]
        assert line_of[key] == lineno
        if kind is int:
            assert type(back) is int and back == value
        else:
            assert back.dtype == value.dtype and back.tobytes() == value.tobytes()
