"""Exceptions survive pickling, so worker failures reach the caller."""

import os
import pickle
import subprocess
import sys

import pytest

from occuthresh.errors import CertificateError, EvaluationError, ParseError, RetryLimitError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "exc, attrs",
    [
        (EvaluationError("objective returned nan", point=0.25), {"point": 0.25}),
        (RetryLimitError("no simple instance", attempts=7), {"attempts": 7}),
        (ParseError("expected field 'n'", line=3), {"line": 3, "message": "expected field 'n'"}),
        (
            CertificateError("d_min_vs_d_plus", 0.4, "forced failure"),
            {"check": "d_min_vs_d_plus", "witness": 0.4, "message": "forced failure"},
        ),
    ],
)
def test_pickle_round_trip(exc, attrs):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    for name, value in attrs.items():
        assert getattr(back, name) == value


def raise_retry_limit(item):
    raise RetryLimitError(f"item {item} exhausted its attempts", attempts=item)


def test_worker_error_reaches_parent():
    """A worker's RetryLimitError is re-raised in the parent instead of hanging the pool."""
    code = (
        "from occuthresh.parallel import parallel_map\n"
        "from tests.test_errors import raise_retry_limit\n"
        "parallel_map(raise_retry_limit, [1, 2, 3, 4], 2)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode != 0
    assert "RetryLimitError" in proc.stderr

