"""A wall-clock limit per property-test case, so a hang fails and names its input.

Cases run in milliseconds; the limit is generous and only catches a
hang, which would otherwise run until the CI job's own timeout.
``signal.alarm`` needs the main thread, where pytest runs the tests.
"""

import contextlib
import signal

CASE_SECONDS = 30


class CaseTimeout(Exception):
    """Not an OSError, so no ``except OSError`` in the code under test swallows it."""


@contextlib.contextmanager
def time_limit(case):
    def expire(signum, frame):
        raise CaseTimeout(f"case ran past {CASE_SECONDS} s: {case!r}")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(CASE_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
