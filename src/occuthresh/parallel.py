"""Deterministic parallel execution for seeded Monte Carlo drivers.

Work items carry their own child seeds, results are gathered in input
order, and reductions happen serially on the gathered list, so the
output is a function of the seeds alone - never of the worker count.
"""

from __future__ import annotations

import os

from .errors import ParameterError


def thread_count(requested: int | None = None) -> int:
    """Resolve a worker count: explicit argument, OCCUTHRESH_THREADS, or CPU count."""
    if requested is not None:
        if requested < 1:
            raise ParameterError(f"thread count must be >= 1, got {requested}")
        return requested
    env = os.environ.get("OCCUTHRESH_THREADS")
    if env:
        try:
            count = int(env)
        except ValueError:
            raise ParameterError(f"OCCUTHRESH_THREADS must be an integer, got {env!r}") from None
        if count < 1:
            raise ParameterError(f"OCCUTHRESH_THREADS must be >= 1, got {env!r}")
        return count
    return os.cpu_count() or 1


def parallel_map(fn, items: list, threads: int) -> list:
    """Map ``fn`` over ``items`` preserving order; serial when threads <= 1.

    Starts at most one worker per item and per CPU.  ``fn`` must be a
    module-level function (it is pickled to worker processes).
    """
    items = list(items)
    threads = min(threads, len(items), os.cpu_count() or 1)
    if threads <= 1:
        return [fn(item) for item in items]
    import multiprocessing  # here, so a serial run never imports it

    chunk = max(1, len(items) // (threads * 8))
    with multiprocessing.Pool(processes=threads) as pool:
        return pool.map(fn, items, chunksize=chunk)
