"""Shared numeric primitives.

Log-space combinatorics, divergences, and the deterministic bisection
root finder used throughout the package.  Everything here is pure, with
one exception: the process keeps a single read-only table of ln(i!),
extended on demand and never beyond ``_LOG_FACTORIALS_KEPT`` entries
(2 MB), so repeated calls do not recompute it.  All factorial-scale
quantities live on the natural-log scale because linear-scale values
overflow immediately at the sizes we care about.

Conventions: ``0 * ln 0 = 0`` everywhere, and the KL divergence returns
``+inf`` (never raises) when the support condition fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, ContractViolation, EvaluationError, ParameterError

_PMF_TOL = 1e-12


@dataclass(frozen=True)
class LogReal:
    """A nonnegative real stored as its natural log; ``value = -inf`` encodes zero."""

    value: float

    @classmethod
    def zero(cls) -> "LogReal":
        return cls(float("-inf"))

    @property
    def is_zero(self) -> bool:
        return self.value == float("-inf")

    def linear(self) -> float:
        """Linear-scale value; overflows to ``inf`` when not representable."""
        return math.exp(self.value) if self.value < 710.0 else float("inf")


@dataclass(frozen=True)
class Pmf:
    """Probability mass function over finitely many outcomes."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1 or w.size == 0:
            raise ContractViolation("pmf weights must be a nonempty vector")
        if not np.all(np.isfinite(w)):
            raise ContractViolation("pmf weights must be finite")
        if np.any(w < 0):
            raise ContractViolation("pmf weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > _PMF_TOL:
            raise ContractViolation(f"pmf weights sum to {w.sum()!r}, not 1")

    def __len__(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class Channel:
    """Column-stochastic transition matrix; entry (y, x) = P[output y | input x].

    The matrix is stored column-major whatever order it arrives in, so
    results computed from it do not depend on the caller's layout.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asfortranarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.size == 0:
            raise ContractViolation("channel matrix must be 2-d")
        if not np.all(np.isfinite(m)):
            raise ContractViolation("channel entries must be finite")
        if np.any(m < 0):
            raise ContractViolation("channel entries must be nonnegative")
        colsums = m.sum(axis=0)
        if np.any(np.abs(colsums - 1.0) > _PMF_TOL):
            raise ContractViolation(f"channel columns must sum to 1, got {colsums!r}")

    @property
    def n_out(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_in(self) -> int:
        return self.matrix.shape[1]

    def apply(self, p: Pmf) -> Pmf:
        if len(p) != self.n_in:
            raise ContractViolation(f"pmf has {len(p)} outcomes, channel expects {self.n_in}")
        return Pmf(self.matrix @ p.weights)


_LOG_FACTORIALS_KEPT = 1 << 18  # most ln(i!) entries the process keeps between calls
_log_factorials = np.zeros(0)  # ln(i!) for i below its size; read-only, replaced to grow


def log_factorials(n: int) -> np.ndarray:
    """Read-only table of ln(i!) for i = 0..n; entry i is ``lgamma(i + 1)``.

    Served from the process's shared table, which computes only the
    entries it lacks.  A table longer than ``_LOG_FACTORIALS_KEPT`` is
    built from the shared prefix and is not kept.
    """
    global _log_factorials
    table = _log_factorials
    if n >= table.size:
        missing = np.fromiter(map(math.lgamma, range(table.size + 1, n + 2)), float, n + 1 - table.size)
        table = np.concatenate((table, missing))
        table.flags.writeable = False
        if table.size <= _LOG_FACTORIALS_KEPT:
            _log_factorials = table
    return table[: n + 1]


def log_falling(a: int, b: int) -> float:
    """ln of the falling factorial (a)_b = a! / (a-b)!; -inf outside 0 <= b <= a."""
    if b < 0 or b > a:
        return float("-inf")
    return math.lgamma(a + 1) - math.lgamma(a - b + 1)


def log_binom(a: int, b: int) -> float:
    """ln C(a, b); -inf outside 0 <= b <= a."""
    if b < 0 or b > a:
        return float("-inf")
    return math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)


def binary_entropy(p: float) -> float:
    """H(p) = -p ln p - (1-p) ln(1-p), with 0 ln 0 = 0."""
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"binary entropy needs p in [0, 1], got {p}")
    out = 0.0
    if p > 0.0:
        out -= p * math.log(p)
    if p < 1.0:
        out -= (1.0 - p) * math.log1p(-p)
    return out


def kl_divergence_rows(ps: np.ndarray, p_star: np.ndarray) -> np.ndarray:
    """Row-wise KL(ps[i] || p_star) for a matrix of pmfs; vectorized.

    Sums the terms ``p ln(p/q) - p + q``, written ``p log1p(d/q) - d``
    with ``d = p - q`` so that no rounding of ``p/q`` enters the log.
    Each term still cancels its own O(d) part, so the relative error is
    about ``1e-16 / |p - q|`` (1e-12 at a separation of 1e-4), and a row
    very close to ``p_star`` can come out slightly negative (near -1e-32).
    Rows with mass on a zero of ``p_star`` come out ``+inf``.
    """
    ps = np.asarray(ps, dtype=float)
    q = np.asarray(p_star, dtype=float)
    if ps.ndim != 2 or ps.shape[1] != q.size:
        raise ContractViolation("ps must be (n_points, n_outcomes) matching p_star")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = ps - q
        terms = d / q
        np.log1p(terms, out=terms)
        terms *= ps
        terms -= d
        # Every entry the fix-ups below rewrite is non-finite.  p = 0 gives
        # NaN.  p > 0 gives -inf where p is so far below q that d / q rounds
        # to -1, and +inf where q = 0 or q is so far below p (a subnormal q)
        # that d / q overflows; those terms are recomputed as
        # p (ln p - ln q) - (p - q), which is +inf where q = 0.
        redo = ~np.isfinite(terms)
        if redo.any():
            redo &= ps > 0.0
            if redo.any():
                p_redo, q_redo = ps[redo], np.broadcast_to(q, ps.shape)[redo]
                terms[redo] = p_redo * (np.log(p_redo) - np.log(q_redo)) - (p_redo - q_redo)
            terms = np.where(ps == 0.0, q, terms)
    return terms.sum(axis=1)


def _checked_eval(f, x: float) -> float:
    fx = float(f(x))
    if not math.isfinite(fx):
        raise EvaluationError(f"objective returned non-finite value {fx!r}", point=x)
    return fx


def find_root(f, lo: float, hi: float, tol: float) -> float:
    """Bisection root of ``f`` on ``[lo, hi]`` down to bracket width ``tol``.

    Requires a strict sign change between the endpoints and a finite
    ``tol > 0``.
    """
    if not lo < hi:
        raise ParameterError(f"need lo < hi, got [{lo}, {hi}]")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ParameterError(f"need a finite tol > 0, got {tol}")
    flo = _checked_eval(f, lo)
    fhi = _checked_eval(f, hi)
    if not flo * fhi < 0:
        raise BracketError(f"no sign change on [{lo}, {hi}]: f(lo)={flo!r}, f(hi)={fhi!r}")
    while (hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fm = _checked_eval(f, mid)
        if fm == 0.0:
            return mid
        if (flo < 0) == (fm < 0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return 0.5 * (lo + hi)
