"""Independent reference computations for the benchmark's output checks.

Nothing here imports occuthresh.  Each function recomputes, from the
definitions, a quantity that some CLI call prints, so that a check
compares the program against code that shares none of its logic:

- SplitMix64 and Fisher-Yates in plain Python integers, reproducing the
  documented seeding rule (child i of a seed is output i+1 of its
  stream; a configuration is one Fisher-Yates pass over the d*n slots).
- Solution counts by meet-in-the-middle: every assignment of the first
  half of the variables is joined with every assignment of the second
  half on the per-constraint tallies.  This enumerates all 2^n
  assignments, hence every fixed-weight one, in O(2^(n/2)).
- E[Z] and E[Z^2] as exact rationals over the configuration model,
  summed over constraint types rather than over overlap profiles.
- Cycle counts from the dense variable x constraint multiplicity matrix.
- The chi-square and Dobrushin coefficients that sandwich eta_KL.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

M64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & M64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & M64
    return z ^ (z >> 31)


def splitmix_output(seed: int, index: int) -> int:
    """Output ``index`` (0-based) of the SplitMix64 stream started at ``seed``."""
    return _mix((seed + (index + 1) * GOLDEN) & M64)


def child_seed(master: int, index: int) -> int:
    return splitmix_output(master & M64, index)


def permutation(seed: int, size: int) -> list[int]:
    """Fisher-Yates over range(size), bounded draws by modulo rejection."""
    arr = list(range(size))
    t = 0
    for i in range(size - 1, 0, -1):
        bound = i + 1
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            u = splitmix_output(seed & M64, t)
            t += 1
            if u < limit:
                break
        j = u % bound
        arr[i], arr[j] = arr[j], arr[i]
    return arr


def permutations(seeds: list[int], size: int) -> np.ndarray:
    """``permutation(s, size)`` for each seed, one Fisher-Yates pass for all rows.

    A row whose draws would be rejected (probability about size/2^64)
    is redone by the scalar routine.
    """
    seeds_u = np.array([s & M64 for s in seeds], dtype=np.uint64)
    steps = np.arange(1, size, dtype=np.uint64)  # output index + 1
    with np.errstate(over="ignore"):
        z = seeds_u[:, None] + steps[None, :] * np.uint64(GOLDEN)
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
    bounds = np.arange(size, 1, -1, dtype=np.uint64)  # i + 1 for i = size-1 .. 1
    rems = np.array([(1 << 64) % int(b) for b in bounds], dtype=np.uint64)
    cut = np.uint64(M64) - rems + np.uint64(1)  # the rejection limit, as uint64
    rejected = ((rems != 0) & (z >= cut[None, :])).any(axis=1)
    js = (z % bounds[None, :]).astype(np.int64)
    rows = np.arange(len(seeds))
    arr = np.tile(np.arange(size, dtype=np.int64), (len(seeds), 1))
    for step, i in enumerate(range(size - 1, 0, -1)):
        j = js[:, step]
        held = arr[:, i].copy()
        arr[:, i] = arr[rows, j]
        arr[rows, j] = held
    for row in np.nonzero(rejected)[0]:
        arr[row] = permutation(seeds[row], size)
    return arr


def multiplicity(wiring, n: int, d: int, k: int) -> np.ndarray:
    """Dense (n, m) matrix: slots of constraint a wired to variable v."""
    wiring = np.asarray(wiring, dtype=np.int64)
    m = d * n // k
    mat = np.zeros((n, m), dtype=np.int64)
    np.add.at(mat, (np.arange(d * n) // d, wiring // k), 1)
    return mat


def solution_count(wiring, n: int, d: int, k: int, r: int) -> int:
    """Assignments with exactly r one-valued slots in every constraint."""
    mat = multiplicity(wiring, n, d, k)
    half = n // 2
    base = np.int64(k + 1)
    powers = base ** np.arange(mat.shape[1], dtype=np.int64)

    def tallies(rows: np.ndarray) -> np.ndarray:
        bits = (np.arange(1 << len(rows))[:, None] >> np.arange(len(rows))[None, :]) & 1
        return bits @ rows

    left = tallies(mat[:half])
    right = tallies(mat[half:])
    left = left[(left <= r).all(axis=1)]
    right = right[(right <= r).all(axis=1)]
    keys_left, n_left = np.unique(left @ powers, return_counts=True)
    keys_right, n_right = np.unique((r - right) @ powers, return_counts=True)
    _, i_left, i_right = np.intersect1d(keys_left, keys_right, return_indices=True)
    return int((n_left[i_left] * n_right[i_right]).sum())


def two_cycles(wiring, n: int, d: int, k: int) -> int:
    mat = multiplicity(wiring, n, d, k)
    return int((mat * (mat - 1) // 2).sum())


def cycle_counts_dense(wiring, n: int, d: int, k: int) -> tuple[int, int]:
    """(2-cycles, 4-cycles): sum C(M,2), and sum over v<v' of (S^2 - Q)/2, S = M M^T."""
    mat = multiplicity(wiring, n, d, k)
    dense = mat.astype(float)  # small integers: float products and sums are exact
    s = dense @ dense.T
    q = (dense * dense) @ (dense * dense).T
    upper = np.triu_indices(n, k=1)
    four = int(round(((s[upper] ** 2 - q[upper]) / 2).sum()))
    return int((mat * (mat - 1) // 2).sum()), four


def first_moment(n: int, d: int, k: int) -> Fraction:
    """E[Z] over uniform configurations, r = 2 (exact rational)."""
    if (2 * n) % k or (d * n) % k:
        return Fraction(0)
    n1, m = 2 * n // k, d * n // k
    ways = math.comb(n, n1) * math.comb(k, 2) ** m
    return Fraction(ways * math.factorial(d * n1) * math.factorial(d * (n - n1)), math.factorial(d * n))


def second_moment(n: int, d: int, k: int) -> Fraction:
    """E[Z^2], r = 2, by constraint types.

    For solutions x, y sharing r1 ones, slots carry types 11, 10, 01, 00.
    A constraint holds two 11 slots (t2), one each of 11/10/01 (t1) or two
    10 and two 01 (t0); the wirings realising a type profile are counted
    by placing types on constraint slots and matching slots to variables
    type by type.
    """
    if (2 * n) % k or (d * n) % k:
        return Fraction(0)
    n1, m = 2 * n // k, d * n // k
    fact = math.factorial
    place2 = math.comb(k, 2)
    place1 = k * (k - 1) * (k - 2)
    place0 = math.comb(k, 2) * math.comb(k - 2, 2)
    total = 0
    for r1 in range(n1 + 1):
        n00 = n - 2 * n1 + r1
        if n00 < 0:
            continue
        pairs = math.comb(n, n1) * math.comb(n1, r1) * math.comb(n - n1, n1 - r1)
        e11, e10, e00 = d * r1, d * (n1 - r1), d * n00
        wirings = 0
        for t2 in range(m + 1):
            t1 = e11 - 2 * t2
            if t1 < 0:
                break
            t0 = m - t1 - t2
            if t0 < 0 or t1 + 2 * t0 != e10:
                continue
            if (k - 2) * t2 + (k - 3) * t1 + (k - 4) * t0 != e00:
                continue
            layouts = fact(m) // (fact(t0) * fact(t1) * fact(t2))
            wirings += layouts * place2**t2 * place1**t1 * place0**t0
        total += pairs * wirings * fact(e11) * fact(e10) ** 2 * fact(e00)
    return Fraction(total, fact(d * n))


def sat_window(n: int, d: int, k: int) -> tuple[float, float]:
    """Second-moment bounds E[Z]^2/E[Z^2] <= P(Z > 0) <= min(1, E[Z])."""
    ez = first_moment(n, d, k)
    return float(ez * ez / second_moment(n, d, k)), float(min(Fraction(1), ez))


def wilson(successes: int, trials: int, z: float) -> tuple[float, float]:
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def ln_first_moment(n: int, d: int, k: int) -> float:
    """ln E[Z] in floating point from exact integer logs (large n)."""
    n1, m = 2 * n // k, d * n // k
    lg = math.lgamma
    return (
        lg(n + 1) - lg(n1 + 1) - lg(n - n1 + 1)
        + m * math.log(math.comb(k, 2))
        + lg(d * n1 + 1) + lg(d * (n - n1) + 1) - lg(d * n + 1)
    )


def lambda_l(l: int, k: int, d: int) -> float:
    return ((k - 1) * (d - 1)) ** l / (2.0 * l)


def threshold_degree(k: int) -> float:
    """d*(k) = k H(2/k) / (k H(2/k) + ln(2/(k(k-1)))), from the first moment."""
    w = 2.0 / k
    entropy = -w * math.log(w) - (1 - w) * math.log(1 - w)
    return k * entropy / (k * entropy + math.log(2.0 / (k * (k - 1))))


def conjectured_sup(k: int) -> float:
    w = 2.0 / k
    entropy = -w * math.log(w) - (1 - w) * math.log(1 - w)
    return entropy / -math.log(2.0 / (k * (k - 1)))


def chi2_coefficient(matrix: np.ndarray, p_star: np.ndarray) -> float:
    """Second singular value squared of diag(q*)^-1/2 W diag(p*)^1/2."""
    q_star = matrix @ p_star
    b = (q_star ** -0.5)[:, None] * matrix * (p_star ** 0.5)[None, :]
    return float(np.linalg.svd(b, compute_uv=False)[1] ** 2)


def dobrushin_coefficient(matrix: np.ndarray) -> float:
    """Largest total-variation distance between two columns of W."""
    cols = matrix.T
    return float(max(0.5 * np.abs(a - b).sum() for a in cols for b in cols))


def kl_rows(ps: np.ndarray, q: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(ps > 0, ps * np.log(ps / q), 0.0)
    return terms.sum(axis=1)


@functools.lru_cache(maxsize=None)
def compositions(total: int, parts: int) -> np.ndarray:
    """All nonnegative integer vectors of length ``parts`` summing to ``total``."""
    if parts == 1:
        return np.array([[total]])
    return np.vstack([
        np.hstack([np.full((len(rest), 1), first), rest])
        for first in range(total + 1)
        for rest in [compositions(total - first, parts - 1)]
    ])


def coarse_ratio_max(matrix: np.ndarray, p_star: np.ndarray, depth: int) -> float:
    """max KL(Wp||Wp*)/KL(p||p*) over a coarse grid, p away from p*."""
    grid = compositions(depth, p_star.size) / depth
    grid = grid[0.5 * np.abs(grid - p_star).sum(axis=1) > 1e-9]
    return float((kl_rows(grid @ matrix.T, matrix @ p_star) / kl_rows(grid, p_star)).max())
