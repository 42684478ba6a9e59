"""Thresholds and moment formulas for the 2-in-k occupation problem.

Exact expectations are finite-n identities evaluated in log scale (the
(dn)! factors overflow immediately otherwise); the asymptotic forms are
the corresponding large-n limits.  Everything in this module is specific
to r = 2 and k >= 4; operations validate both.

An overlap point w = (w1, w2) of two solutions carries w1, the fraction
of the first solution's ones that the second shares, and w2, the
fraction of constraints in which it shares both.  Its input pmf is the
3-outcome law of the shared-ones count in a constraint; the output pmf
depends on w only through w1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, EvaluationError, ParameterError
from .instances import Params
from .numerics import (
    LogReal,
    binary_entropy,
    kl_divergence_rows,
    log_binom,
    log_factorials,
    log_falling,
)
from .occupancy import ones_quota

_DOMAIN_TOL = 1e-9

# Most (r1, r2) terms in the region of the exact second moment.  k = 4,
# d = 2 reaches it near n = 56000; n = 40000 has 1.0e8 terms, of which
# the sum keeps 9.4e5, in about 70 ms.
_EXACT_TERMS = 2 * 10**8
# Terms this far below the largest are left out of the exact second
# moment: with at most _EXACT_TERMS of them, they weigh under
# 2e8 * e^-64 < 4e-20 of the sum, far below half an ulp.
_WINDOW_NATS = 64.0
_CHUNK_TERMS = 1 << 15  # (r1, r2) terms built at once, whole r1 rows unless one is longer


def w_star(k: int) -> tuple[float, float]:
    """The independent-overlap point (2/k, 1/C(k,2))."""
    return 2.0 / k, 2.0 / (k * (k - 1))


def input_pmf_star(k: int) -> np.ndarray:
    """Reference 3-outcome pmf p(w*): exact rational forms to avoid cancellation."""
    kk = float(k)
    return np.array(
        [
            (kk - 2.0) * (kk - 3.0) / (kk * (kk - 1.0)),
            4.0 * (kk - 2.0) / (kk * (kk - 1.0)),
            2.0 / (kk * (kk - 1.0)),
        ]
    )


@dataclass(frozen=True)
class OverlapPoint:
    """A point measuring the similarity of two solutions: 2*w1 - 1 <= w2 <= w1."""

    w1: float
    w2: float

    def __post_init__(self):
        w1, w2 = self.w1, self.w2
        if not (-_DOMAIN_TOL <= w1 <= 1.0 + _DOMAIN_TOL and -_DOMAIN_TOL <= w2 <= 1.0 + _DOMAIN_TOL):
            raise ParameterError(f"overlap point out of the unit square: {(w1, w2)}")
        if w2 > w1 + _DOMAIN_TOL or w2 < 2.0 * w1 - 1.0 - _DOMAIN_TOL:
            raise ParameterError(f"overlap point outside its domain: {(w1, w2)}")


def _clamped(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if np.any(arr < -_DOMAIN_TOL):
        raise ParameterError(f"pmf cell went negative: {arr!r}")
    return np.clip(arr, 0.0, None)


def input_count_pmf(w: OverlapPoint) -> np.ndarray:
    """3-outcome pmf of the shared-ones count under the second solution."""
    return _clamped([1.0 - 2.0 * w.w1 + w.w2, 2.0 * (w.w1 - w.w2), w.w2])


def output_count_pmf(w1: float, k: int) -> np.ndarray:
    """3-outcome pmf of (X_i + Y_i); depends on w only through w1."""
    ws = 2.0 / k
    return _clamped([1.0 - ws * (2.0 - w1), 2.0 * ws * (1.0 - w1), ws * w1])


def input_kl(w: OverlapPoint, k: int) -> float:
    """KL(P_w || P*)."""
    p = input_count_pmf(w)
    return float(kl_divergence_rows(p.reshape(1, -1), input_pmf_star(k))[0])


def output_kl(w: OverlapPoint, k: int) -> float:
    """KL(Q_w || Q*)."""
    q, q_star = output_count_pmf(w.w1, k), output_count_pmf(2.0 / k, k)
    return float(kl_divergence_rows(q.reshape(1, -1), q_star)[0])


def _require_k(k: int):
    if k < 4:
        raise ParameterError(f"moment formulas need k >= 4, got k={k}")


def _require_r2(params: Params):
    if params.r != 2:
        raise ParameterError(f"moment formulas cover r = 2 only, got r={params.r}")
    _require_k(params.k)


@dataclass(frozen=True)
class ThresholdReport:
    k: int
    w1_star: float
    w2_star: float
    d_star: float
    is_integer: bool
    bounds_ok: bool


def threshold_f(k: int, d: float) -> float:
    """Fixed-point function whose unit value characterizes the threshold degree."""
    # (k-1) ln k - ln 2 - (k-2) ln(k-2) - ln(k-1), without its k ln k terms cancelling.
    log_base = -(k - 2) * math.log1p(-2.0 / k) + math.log(k / (2.0 * (k - 1)))
    return math.exp(math.log(2.0 / (k * (k - 1))) + (d - 1.0) * log_base)


def threshold_dstar(k: int) -> ThresholdReport:
    """Satisfiability threshold degree d* = kH(2/k) / (kH(2/k) + ln w2*)."""
    _require_k(k)
    w1s, w2s = w_star(k)
    entropy = binary_entropy(w1s)
    d_star = k * entropy / (k * entropy + math.log(w2s))
    if abs(threshold_f(k, d_star) - 1.0) > 1e-10:
        raise EvaluationError(
            f"threshold fixed-point residual too large at k={k}", point=d_star
        )
    return ThresholdReport(
        k=k,
        w1_star=w1s,
        w2_star=w2s,
        d_star=d_star,
        is_integer=abs(d_star - round(d_star)) <= 1e-9,
        bounds_ok=1.0 < d_star < k,
    )


def phi1(k: int, d: float) -> float:
    """Exponential growth rate of E[Z] per variable; zero exactly at d*."""
    _require_k(k)
    if d <= 1:
        raise ParameterError(f"need d > 1, got {d}")
    w1s, w2s = w_star(k)
    return (d / k) * (-math.log(w2s)) - (d - 1.0) * binary_entropy(w1s)


def phi2(w: OverlapPoint, k: int, d: float) -> float:
    """Pair free-entropy density (d/k) KL(P||P*) - (d-1) KL(Q||Q*)."""
    _require_k(k)
    return (d / k) * input_kl(w, k) - (d - 1.0) * output_kl(w, k)


@dataclass(frozen=True)
class Hessian2:
    """Symmetric 2x2 Hessian of phi2 at w* in (w1, w2)."""

    h11: float
    h12: float
    h22: float

    @property
    def det(self) -> float:
        return self.h11 * self.h22 - self.h12 * self.h12

    @property
    def positive_definite(self) -> bool:
        return self.h11 + self.h22 > 0 and self.det > 0


def hessian_phi2(k: int, d: float) -> Hessian2:
    """Closed-form Hessian entries; singular at k = 3 where (k-3) divides."""
    if k == 3:
        raise ParameterError("Hessian formulas are singular at k = 3")
    _require_k(k)
    kk = float(k)
    h11 = (d * (kk * kk - kk + 2.0) + kk * kk * (kk - 3.0)) / ((kk - 2.0) ** 2 * (kk - 3.0))
    h12 = -d * (kk - 1.0) ** 2 / ((kk - 2.0) * (kk - 3.0))
    h22 = d * (kk - 1.0) ** 2 / (2.0 * (kk - 3.0))
    hess = Hessian2(h11=h11, h12=h12, h22=h22)
    det_formula = d * kk * (kk - 1.0) ** 2 * (kk - d) / (2.0 * (kk - 2.0) ** 2 * (kk - 3.0))
    if abs(hess.det - det_formula) > 1e-12 * max(1.0, abs(det_formula)):
        raise EvaluationError(f"Hessian determinant identity failed at k={k}, d={d}", point=d)
    return hess


def first_moment_exact(params: Params) -> LogReal:
    """Exact ln E[Z]; LogReal zero (the flag) when the ones quota is fractional."""
    _require_r2(params)
    n, d, k, m = params.n, params.d, params.k, params.m
    quota = ones_quota(params)
    if quota is None:
        return LogReal.zero()
    dn = d * n
    value = (
        log_binom(n, quota)
        + m * math.log(k * (k - 1) / 2.0)
        + math.lgamma(2 * m + 1)
        + math.lgamma(dn - 2 * m + 1)
        - math.lgamma(dn + 1)
    )
    return LogReal(value)


def first_moment_asymptotic(k: int, d: int, n: int) -> LogReal:
    """Large-n form ln(sqrt(d) * exp(n * phi1))."""
    return LogReal(0.5 * math.log(d) + n * phi1(k, d))


def _log_sum_exp(values) -> float:
    """ln(sum(exp(values))) as peak + ln(sum(exp(values - peak))); -inf if all are -inf."""
    values = np.asarray(values)
    peak = values.max()
    if peak == -np.inf:
        return float("-inf")
    return float(peak + np.log(np.exp(values - peak).sum()))


def _overlap_terms(n1: int, d: int, m: int) -> int:
    """Number of (r1, r2) with 0 <= r1 <= n1, max(0, d*r1 - m) <= r2 <= floor(d*r1/2).

    Closed form, valid when every r1 <= n1 has d*r1 - m <= d*r1/2, as
    n1 = 2m/d gives: sum of floor(d*r1/2) + 1 less sum of d*r1 - m
    over r1 > m/d.
    """
    odd = (n1 + 1) // 2 if d % 2 else 0  # r1 with d*r1 odd
    upper = (d * n1 * (n1 + 1) // 2 - odd) // 2 + n1 + 1
    first = m // d + 1  # least r1 with d*r1 > m
    if first > n1:
        return upper
    above = n1 - first + 1
    return upper - (d * (n1 * (n1 + 1) - (first - 1) * first) // 2 - m * above)


def _log_overlap_terms(params: Params, n1: int):
    """The summands ln T(r1, r2) of E[Z^2]/E[Z]^2, elementwise over integer arrays.

    Hypergeometric x multinomial / hypergeometric probabilities, with
    t0 = m - d*r1 + r2, t1 = d*r1 - 2*r2 and t2 = r2 constraints sharing
    0, 1 and 2 ones.
    """
    n, d, k, m = params.n, params.d, params.k, params.m
    dn = d * n
    lf = log_factorials(dn)

    def log_c(a: int, b) -> np.ndarray:
        b = np.asarray(b)
        valid = (b >= 0) & (b <= a)
        b_safe = np.where(valid, b, 0)
        out = lf[a] - lf[b_safe] - lf[a - b_safe]
        return np.where(valid, out, -np.inf)

    log_pstar = np.log(input_pmf_star(k))
    r1s = np.arange(n1 + 1)
    log_pv = log_c(n1, r1s) + log_c(n - n1, n1 - r1s) - float(log_c(n, n1))
    log_pe = log_c(d * n1, d * r1s) + log_c(d * (n - n1), d * (n1 - r1s)) - float(log_c(dn, d * n1))

    def term(r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
        t0 = m - d * r1 + r2
        t1 = d * r1 - 2 * r2
        t2 = r2
        log_pf = (
            lf[m]
            - lf[t0]
            - lf[t1]
            - lf[t2]
            + t0 * log_pstar[0]
            + t1 * log_pstar[1]
            + t2 * log_pstar[2]
        )
        return log_pv[r1] + log_pf - log_pe[r1]

    return term


def _first_true(pred, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least x in [a, b] with pred(x), elementwise; pred is false then true on [a, b] and true at b."""
    while True:
        open_ = a < b
        if not open_.any():
            return a
        mid = (a + b) // 2
        true = pred(mid) | ~open_
        a, b = np.where(true, a, mid + 1), np.where(true, mid, b)


def _overlap_windows(params: Params, n1: int, term):
    """The r1 rows and r2 windows [first, last] holding every term within ``_WINDOW_NATS`` of the peak.

    Along r2 a row is log-concave: its forward difference
    ln(t1 (t1-1)) - ln(t0+1) - ln(t2+1) + ln(p0* p2* / p1*^2) falls
    strictly, as t1 drops by 2 and t0 and t2 each rise by 1.  So a row's
    mode is the first r2 where that difference is not positive, and the
    terms fall away from it on either side.  Every row is bisected at
    once: for its mode, then for the ends of its window.
    """
    d, k, m = params.d, params.k, params.m
    log_pstar = np.log(input_pmf_star(k))
    tilt = log_pstar[0] + log_pstar[2] - 2.0 * log_pstar[1]
    r1s = np.arange(n1 + 1)
    # Every r1 <= n1 = 2m/d has d*r1 - m <= d*r1/2, so no r1 row is empty.
    lo = np.maximum(0, d * r1s - m)
    hi = (d * r1s) // 2

    def falls(r2):
        t0, t1, t2 = m - d * r1s + r2, d * r1s - 2 * r2, r2
        with np.errstate(divide="ignore"):  # t1 (t1 - 1) = 0 at r2 = hi
            step = np.log(t1 * (t1 - 1.0)) - np.log(t0 + 1.0) - np.log(t2 + 1.0) + tilt
        return step <= 0.0

    mode = _first_true(falls, lo, hi)
    peaks = term(r1s, mode)
    floor = peaks.max() - _WINDOW_NATS
    keep = peaks >= floor
    rows, lo, hi, mode = r1s[keep], lo[keep], hi[keep], mode[keep]
    first = _first_true(lambda r2: term(rows, r2) >= floor, lo, mode)
    last = _first_true(lambda r2: (r2 == hi) | (term(rows, np.minimum(r2 + 1, hi)) < floor), mode, hi)
    return rows, first, last


def second_moment_exact_ratio(params: Params) -> LogReal:
    """Exact ln(E[Z^2]/E[Z]^2) as a sum over the integer overlap region.

    Summands are hypergeometric x multinomial / hypergeometric
    probabilities; the region is r1 <= n1, d*r1 - m <= r2 <= floor(d*r1/2).
    Only the terms within ``_WINDOW_NATS`` = 64 nats of the largest are
    summed (see :func:`_overlap_windows`): the region holds at most
    ``_EXACT_TERMS`` = 2e8 terms, so those left out weigh under
    2e8 * e^-64 < 4e-20 of the sum, far below half an ulp.  Each r1 is a
    log-sum-exp of its own terms, built with those of neighbouring r1 in
    chunks of about ``_CHUNK_TERMS``, and the reduction over r1 is a
    log-sum-exp in fixed r1 order.  A region of more than
    ``_EXACT_TERMS`` terms raises :class:`CapacityError` before any is
    summed.
    """
    _require_r2(params)
    quota = ones_quota(params)
    if quota is None:
        return LogReal.zero()
    n, d, m = params.n, params.d, params.m
    n1 = quota
    terms = _overlap_terms(n1, d, m)
    if terms > _EXACT_TERMS:
        raise CapacityError(
            f"exact second moment at n={n} sums {terms} overlap terms, "
            f"over the limit of {_EXACT_TERMS}; the asymptotic ratio needs no sum"
        )
    term = _log_overlap_terms(params, n1)
    rows, first, last = _overlap_windows(params, n1, term)
    sizes = last - first + 1
    ends = np.cumsum(sizes)
    per_r1 = np.empty(rows.size)
    start = 0
    while start < rows.size:
        limit = ends[start] - sizes[start] + _CHUNK_TERMS
        stop = max(start + 1, int(np.searchsorted(ends, limit, "right")))
        counts = sizes[start:stop]
        offsets = np.cumsum(counts) - counts  # where each row's terms start in the chunk
        r1 = np.repeat(rows[start:stop], counts)
        r2 = np.arange(counts.sum()) - np.repeat(offsets - first[start:stop], counts)
        terms = term(r1, r2)
        # Each r1 is a log-sum-exp of its own terms: the peaks are exact,
        # and every sum is a slice's own (pairwise) .sum().
        peaks = np.maximum.reduceat(terms, offsets)
        scaled = np.exp(terms - np.repeat(peaks, counts))
        sums = [scaled[a:b].sum() for a, b in zip(offsets.tolist(), (offsets + counts).tolist())]
        per_r1[start:stop] = peaks + np.log(sums)
        start = stop
    return LogReal(_log_sum_exp(per_r1))


def second_moment_asymptotic(k: int, d: float) -> float:
    """Limit of E[Z^2]/E[Z]^2 below the threshold: sqrt((k-1)/(k-d)).

    Only 1 < d < d*(k) has a finite limit: from d*(k) on, E[Z] -> 0 and
    the ratio, at least 1/P(Z > 0), grows without bound, so those d
    raise.  Cross-checked internally against the Laplace form
    f(w*) * sqrt((2 pi)^2 / det((k/sqrt(2d)) H)).
    """
    _require_k(k)
    d_star = threshold_dstar(k).d_star
    if not 1 < d < d_star:
        raise ParameterError(
            f"E[Z^2]/E[Z]^2 has a finite limit only for 1 < d < d*(k) = {d_star!r}, "
            f"got d={d}, k={k}"
        )
    closed = math.sqrt((k - 1.0) / (k - d))
    pstar = input_pmf_star(k)
    prefactor = math.sqrt(2.0 / ((2.0 * math.pi) ** 2 * float(np.prod(pstar))))
    det_scaled = (k * k / (2.0 * d)) * hessian_phi2(k, d).det
    laplace = prefactor * math.sqrt((2.0 * math.pi) ** 2 / det_scaled)
    if abs(closed - laplace) > 1e-10 * closed:
        raise EvaluationError(
            f"Laplace form disagrees with closed form at k={k}, d={d}", point=d
        )
    return closed


def _word_classes(l: int):
    """Yield the ``(r1, r2, count)`` classes of the binary words of length l.

    r1 counts ones and r2 ones whose cyclic successor is one.  With
    0 < r1 < l and j cyclic runs of ones, r2 = r1 - j and the class has
    l C(r1-1, j-1) C(l-r1-1, j-1) / j words.
    """
    yield 0, 0, 1
    for r1 in range(1, l):
        for j in range(1, min(r1, l - r1) + 1):
            yield r1, r1 - j, l * math.comb(r1 - 1, j - 1) * math.comb(l - r1 - 1, j - 1) // j
    yield l, l, 1


def joint_moment_exact(params: Params, l: int) -> LogReal:
    """Exact ln E[Z * X_l], summing over assignments y of the canonical cycle.

    A summand depends on the binary word y only through its class from
    :func:`_word_classes`, so each class enters once, plus ln(count).
    """
    _require_r2(params)
    if l < 1:
        raise ParameterError(f"need l >= 1, got {l}")
    quota = ones_quota(params)
    if quota is None:
        return LogReal.zero()
    n, d, k, m = params.n, params.d, params.k, params.m
    n1 = quota
    dn = d * n
    if d * n1 < 2 * l or d * (n - n1) < 2 * l or m < l:
        raise ParameterError(f"instance too small for l={l} cycles")

    base = (
        log_binom(n, n1)
        + m * math.log(k * (k - 1) / 2.0)
        + l * math.log(d * (d - 1))
        - math.log(2 * l)
        - math.lgamma(dn + 1)
    )
    terms = [
        base
        + log_falling(n1, r1)
        + log_falling(n - n1, l - r1)
        + log_falling(m, l)
        + r2 * math.log(2.0)
        + 2 * (r1 - r2) * math.log(2.0 * (k - 2))
        + (l - 2 * r1 + r2) * math.log((k - 2.0) * (k - 3.0))
        + math.lgamma(d * n1 - 2 * r1 + 1)
        + math.lgamma(d * (n - n1) - 2 * (l - r1) + 1)
        + math.log(count)
        for r1, r2, count in _word_classes(l)
    ]
    return LogReal(_log_sum_exp(terms))


@dataclass(frozen=True)
class VarianceExplained:
    partial_sum: float
    closed_form: float
    residual: float


def variance_explained(k: int, d: float, l_max: int) -> VarianceExplained:
    """Partial sum of lambda_l * delta_l^2 against its closed form ln sqrt((k-1)/(k-d)).

    The residual is nonnegative and decays geometrically in l_max.
    """
    from .cycles import delta_l, lambda_l

    _require_k(k)
    if not 1 < d < k:
        raise ParameterError(f"series diverges unless 1 < d < k, got d={d}, k={k}")
    if l_max < 1:
        raise ParameterError(f"need l_max >= 1, got {l_max}")
    partial = sum(lambda_l(l, k, d) * delta_l(l, k) ** 2 for l in range(1, l_max + 1))
    closed = 0.5 * math.log((k - 1.0) / (k - d))
    return VarianceExplained(
        partial_sum=partial, closed_form=closed, residual=closed - partial
    )
