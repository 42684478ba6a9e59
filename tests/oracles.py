"""Independent brute-force oracles.

These deliberately avoid the library's counting paths: solution counts
come from sweeping all 2^n assignments against per-constraint sums, and
ensemble expectations from enumerating every wiring permutation of the
smallest nontrivial family (k=4, d=2, n=4; 8! = 40320 configurations).
A contraction coefficient's search over exponential tilts is checked
against a polar grid around p* in the simplex, which knows nothing of
tilts.
The sampler's reference is the scalar Fisher-Yates loop, one stream
output and one rejection test at a time, and the cycle census's is a
recursive walk, one Python call per visited variable.  The exact
second moment's reference takes its vertex and edge factors (four
scalar log-binomials each), its terms and its sums one overlap r1 at a
time, and the exact joint moment E[Z X_l]'s reference takes one summand
for each of the 2^l binary words on the l-cycle.  Redundant constraint pairs are tallied row by row in a Counter.
A contraction coefficient is bracketed by two closed forms that share
no code with its search: the chi-square coefficient below and the
Dobrushin coefficient above.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from occuthresh.instances import Configuration, Params
from occuthresh.moments import input_pmf_star
from occuthresh.numerics import log_factorials
from occuthresh.occupancy import ones_quota


def count_solutions_bruteforce(cfg: Configuration) -> int:
    """Solution count by testing every one of the 2^n assignments."""
    p = cfg.params
    members = cfg.constraint_members()
    count = 0
    for bits in range(1 << p.n):
        x = np.fromiter(((bits >> i) & 1 for i in range(p.n)), dtype=np.int64, count=p.n)
        if np.all(x[members].sum(axis=1) == p.r):
            count += 1
    return count


def solutions_bruteforce(cfg: Configuration) -> list[np.ndarray]:
    """All solutions of a small instance, as 0/1 vectors."""
    p = cfg.params
    members = cfg.constraint_members()
    out = []
    for bits in range(1 << p.n):
        x = np.fromiter(((bits >> i) & 1 for i in range(p.n)), dtype=np.int64, count=p.n)
        if np.all(x[members].sum(axis=1) == p.r):
            out.append(x)
    return out


def exhaustive_k4_d2_n4() -> dict:
    """Exact ensemble statistics over all 40320 configurations at (k=4, d=2, n=4).

    Returns per-configuration arrays (solution count, two-cycle count,
    redundant-pair count) and the exact rational ensemble means.
    """
    perms = np.array(list(itertools.permutations(range(8))), dtype=np.int64)
    n_cfg = perms.shape[0]
    inv = np.empty_like(perms)
    inv[np.arange(n_cfg)[:, None], perms] = np.arange(8)[None, :]
    members = (inv // 2).reshape(n_cfg, 2, 4)  # constraint a owns f-slots 4a..4a+3

    z = np.zeros(n_cfg, dtype=np.int64)
    for ones in itertools.combinations(range(4), 2):
        x = np.zeros(4, dtype=np.int64)
        x[list(ones)] = 1
        z += (x[members].sum(axis=2) == 2).all(axis=1)

    cons = perms // 4
    x1 = (cons[:, 0::2] == cons[:, 1::2]).sum(axis=1)

    rows = np.sort(members, axis=2)
    distinct = (np.diff(rows, axis=2) > 0).all(axis=2).all(axis=1)
    equal = (rows[:, 0, :] == rows[:, 1, :]).all(axis=1)
    redundant = (equal & distinct).astype(np.int64)

    return {
        "params": Params(n=4, d=2, k=4, r=2),
        "perms": perms,
        "z": z,
        "x1": x1,
        "redundant": redundant,
        "mean_z": Fraction(int(z.sum()), n_cfg),
        "mean_z2": Fraction(int((z * z).sum()), n_cfg),
        "mean_zx1": Fraction(int((z * x1).sum()), n_cfg),
        "mean_redundant": Fraction(int(redundant.sum()), n_cfg),
    }


def polar_grid_reference(
    matrix: np.ndarray, p_star: np.ndarray, directions: int, radii: int
) -> float:
    """Largest KL(Wp||Wp*)/KL(p||p*) over a polar grid around p* in the simplex, 2 to 4 inputs.

    The points are p* + t u for unit vectors u with zero sum: both signs
    for 2 inputs, ``directions`` angles for 3 and a Fibonacci sphere of
    ``directions`` points for 4.  Along each u, t runs over ``radii``
    geometric steps from 2e-2 of the way to the simplex boundary up to
    the boundary itself.  The divergences are plain sums of p ln(p/q).
    """
    n = p_star.size
    tangent = np.linalg.svd(np.eye(n) - 1.0 / n)[0][:, : n - 1]  # orthonormal, zero column sums
    if n == 2:
        coords = np.array([[1.0], [-1.0]])
    elif n == 3:
        angle = 2.0 * np.pi * np.arange(directions) / directions
        coords = np.column_stack([np.cos(angle), np.sin(angle)])
    else:
        z = 1.0 - (2.0 * np.arange(directions) + 1.0) / directions
        angle = np.pi * (3.0 - np.sqrt(5.0)) * np.arange(directions)
        ring = np.sqrt(1.0 - z * z)
        coords = np.column_stack([ring * np.cos(angle), ring * np.sin(angle), z])
    us = coords @ tangent.T
    with np.errstate(divide="ignore"):
        reach = np.where(us < 0.0, p_star / -us, np.inf).min(axis=1)
    ps = p_star + (reach[:, None] * np.geomspace(2e-2, 1.0, radii))[:, :, None] * us[:, None, :]
    ps = np.clip(ps.reshape(-1, n), 0.0, None)

    def kl(rows, ref):
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = rows * np.log(rows / ref)
        return np.where(rows > 0.0, terms, 0.0).sum(axis=1)

    return float(np.max(kl(ps @ matrix.T, matrix @ p_star) / kl(ps, p_star)))


def chi2_coefficient(matrix: np.ndarray, p_star: np.ndarray) -> float:
    """rho^2: the squared second singular value of diag(q*)^-1/2 W diag(p*)^1/2.

    It is the limit of the divergence ratio as p -> p*, so it bounds the
    KL contraction coefficient from below.
    """
    q_star = matrix @ p_star
    scaled = matrix * np.sqrt(p_star)[None, :] / np.sqrt(q_star)[:, None]
    return float(np.linalg.svd(scaled, compute_uv=False)[1] ** 2)


def dobrushin_coefficient(matrix: np.ndarray) -> float:
    """eta_TV: the largest total-variation distance between two input columns.

    It bounds the KL contraction coefficient from above for every p*.
    """
    return max(
        0.5 * float(np.abs(matrix[:, i] - matrix[:, j]).sum())
        for i, j in itertools.combinations(range(matrix.shape[1]), 2)
    )


def fisher_yates_reference(seed: int, n: int, outputs) -> np.ndarray:
    """Fisher-Yates (Knuth's Algorithm P) reading the stream one output at a time.

    ``outputs(seed, start, count)`` gives stream outputs ``start ..
    start+count-1``; it is read in blocks, but every output passes
    through ``randbelow`` on its own, which rejects outputs at or above
    the largest multiple of the bound.
    """

    def stream():
        start = 0
        while True:
            yield from outputs(seed, start, 1024).tolist()
            start += 1024

    values = stream()

    def randbelow(bound: int) -> int:
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            u = next(values)
            if u < limit:
                return u % bound

    arr = list(range(n))
    for i in range(n - 1, 0, -1):
        j = randbelow(i + 1)
        arr[i], arr[j] = arr[j], arr[i]
    return np.asarray(arr, dtype=np.int64)


def census_walk_reference(cfg: Configuration, l_max: int) -> tuple:
    """Cycle counts for l = 1 .. l_max by a recursive depth-first walk.

    Every directed rooted walk (rooted at a variable, with a direction)
    that returns to its root through distinct variables, constraints and
    wiring edges is counted once per step, then each count is divided by
    2l, which must divide it exactly.
    """
    p = cfg.params
    d, k = p.d, p.k
    to_con = (cfg.wiring // k).tolist()
    con_members = cfg.inverse_wiring().reshape(p.m, k).tolist()
    directed = [0] * (l_max + 1)
    var_seen = bytearray(p.n)
    con_seen = bytearray(p.m)

    def walk(root: int, a: int, s_in: int, depth: int):
        for s_out in con_members[a]:
            if s_out == s_in:
                continue
            v = s_out // d
            if v == root:
                directed[depth] += 1
                continue
            if depth == l_max or var_seen[v]:
                continue
            var_seen[v] = 1
            base = v * d
            for s2 in range(base, base + d):
                if s2 == s_out:
                    continue
                a2 = to_con[s2]
                if con_seen[a2]:
                    continue
                con_seen[a2] = 1
                walk(root, a2, s2, depth + 1)
                con_seen[a2] = 0
            var_seen[v] = 0

    for root in range(p.n):
        var_seen[root] = 1
        base = root * d
        for s in range(base, base + d):
            a = to_con[s]
            con_seen[a] = 1
            walk(root, a, s, 1)
            con_seen[a] = 0
        var_seen[root] = 0

    for l in range(1, l_max + 1):
        assert directed[l] % (2 * l) == 0, f"directed {2 * l}-cycle count {directed[l]}"
    return tuple(directed[l] // (2 * l) for l in range(1, l_max + 1))


def second_moment_ratio_reference(params: Params) -> float:
    """ln(E[Z^2]/E[Z]^2) one overlap r1 at a time, its factors computed inside the loop.

    Each r1 gets its own range of r2, its own terms and its own
    log-sum-exp.  The elementwise expressions and each r1's pairwise
    ``.sum()`` are those of ``second_moment_exact_ratio``, which builds
    the terms of many r1 at once, so the result must be bit-identical.
    """
    n1 = ones_quota(params)
    if n1 is None:
        return float("-inf")
    n, d, m = params.n, params.d, params.m
    lf = log_factorials(d * n)

    def log_c(a: int, b: int) -> float:
        return float(lf[a] - lf[b] - lf[a - b]) if 0 <= b <= a else float("-inf")

    log_pstar = np.log(input_pmf_star(params.k))
    per_r1 = np.full(n1 + 1, -np.inf)
    for r1 in range(n1 + 1):
        lo, hi = max(0, d * r1 - m), (d * r1) // 2
        if lo > hi:
            continue
        log_pv = (log_c(n1, r1) + log_c(n - n1, n1 - r1)) - log_c(n, n1)
        log_pe = (log_c(d * n1, d * r1) + log_c(d * (n - n1), d * (n1 - r1))) - log_c(d * n, d * n1)
        r2 = np.arange(lo, hi + 1)
        t0, t1, t2 = m - d * r1 + r2, d * r1 - 2 * r2, r2
        log_pf = (lf[m] - lf[t0] - lf[t1] - lf[t2]
                  + t0 * log_pstar[0] + t1 * log_pstar[1] + t2 * log_pstar[2])
        terms = log_pv + log_pf - log_pe
        peak = terms.max()
        if peak > -np.inf:
            per_r1[r1] = peak + np.log(np.exp(terms - peak).sum())
    peak = per_r1.max()
    return float(peak + np.log(np.exp(per_r1 - peak).sum()))


def count_redundant_constraints(cfg: Configuration) -> int:
    """Unordered pairs of constraints on identical sets of k distinct variables."""
    k = cfg.params.k
    tallies: Counter = Counter()
    for row in np.sort(cfg.constraint_members(), axis=1):
        if len(set(row.tolist())) == k:
            tallies[tuple(row.tolist())] += 1
    return sum(c * (c - 1) // 2 for c in tallies.values())


def joint_moment_reference(params: Params, l: int) -> float:
    """ln E[Z X_l] with one summand per binary word y of the l-cycle.

    r1 counts the ones of y and r2 the ones whose cyclic successor is
    one.  The parameters must pass ``joint_moment_exact``'s checks.
    """
    n, d, k, m = params.n, params.d, params.k, params.m
    n1 = ones_quota(params)
    dn = d * n

    def log_ff(a: int, b: int) -> float:
        return math.lgamma(a + 1) - math.lgamma(a - b + 1) if b <= a else float("-inf")

    base = (
        math.lgamma(n + 1) - math.lgamma(n1 + 1) - math.lgamma(n - n1 + 1)
        + m * math.log(k * (k - 1) / 2.0)
        + l * math.log(d * (d - 1))
        - math.log(2 * l)
        - math.lgamma(dn + 1)
    )
    terms = []
    for y in range(1 << l):
        r1 = bin(y).count("1")
        succ = ((y >> 1) | ((y & 1) << (l - 1))) if l > 1 else y
        r2 = bin(y & succ).count("1")
        terms.append(
            base
            + log_ff(n1, r1)
            + log_ff(n - n1, l - r1)
            + log_ff(m, l)
            + r2 * math.log(2.0)
            + 2 * (r1 - r2) * math.log(2.0 * (k - 2))
            + (l - 2 * r1 + r2) * math.log((k - 2.0) * (k - 3.0))
            + math.lgamma(d * n1 - 2 * r1 + 1)
            + math.lgamma(d * (n - n1) - 2 * (l - r1) + 1)
        )
    arr = np.array(terms)
    peak = arr.max()
    return float(peak + np.log(np.exp(arr - peak).sum())) if peak > -np.inf else float("-inf")
