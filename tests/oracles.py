"""Independent brute-force oracles.

These deliberately avoid the library's counting paths: solution counts
come from sweeping all 2^n assignments against per-constraint sums or,
where 2^n is too many, from the propagation search that counted before
the frontier dynamic program, frozen; ensemble expectations come from
enumerating every wiring permutation of the smallest nontrivial family
(k=4, d=2, n=4; 8! = 40320 configurations).
A contraction coefficient's search over exponential tilts is checked
against a polar grid around p* in the simplex, which knows nothing of
tilts.
The sampler's reference is the scalar Fisher-Yates loop, one stream
output and one rejection test at a time, and the cycle census's is a
recursive walk, one Python call per visited variable.  The exact
second moment's reference takes its vertex and edge factors (four
scalar log-binomials each), its terms and its sums one overlap r1 at a
time, and sums every term of the region.  The exact joint moment
E[Z X_l]'s reference takes one summand for each of the 2^l binary
words on the l-cycle.  Redundant constraint pairs are tallied row by row in a Counter.
A contraction coefficient is bracketed by two closed forms that share
no code with its search: the chi-square coefficient below and the
Dobrushin coefficient above.  The tilt refine's reference scores one
step per batch, halving after each failure, where the search batches
every halving that follows a failure.  The occupation channel's
supremum is checked against a line over w1 alone, which scores at each
w1 the overlap point of least input divergence in closed form and
knows nothing of tilts.
The row-wise KL kernel's reference is its earlier form, frozen: every
fix-up (lost terms, zero entries, zero reference entries) runs on every
call, where the kernel runs them only when a term is not finite.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from occuthresh import sdpi
from occuthresh.instances import Configuration, Params
from occuthresh.moments import OverlapPoint, input_pmf_star
from occuthresh.numerics import log_factorials
from occuthresh.occupancy import ones_quota


def kl_divergence_rows_reference(ps: np.ndarray, p_star: np.ndarray) -> np.ndarray:
    """Row-wise KL(ps[i] || p_star), with every fix-up scanned for on every call."""
    ps = np.asarray(ps, dtype=float)
    q = np.asarray(p_star, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = ps - q
        terms = ps * np.log1p(d / q) - d
    lost = terms == -np.inf  # p so far below q that d / q rounds to -1
    if lost.any():
        p_lost, q_lost = ps[lost], np.broadcast_to(q, ps.shape)[lost]
        terms[lost] = p_lost * (np.log(p_lost) - np.log(q_lost)) - (p_lost - q_lost)
    terms = np.where(ps == 0.0, q, terms)
    zero_q = (q == 0.0) & (ps > 0.0)
    terms = np.where(zero_q, np.inf, terms)
    return terms.sum(axis=1)


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


def count_solutions_search_reference(cfg: Configuration) -> int:
    """Solution count by the propagation search that counted before the frontier DP.

    Each constraint keeps ``(ones, free)`` f-edge tallies, is in conflict
    when ``ones > r`` or ``ones + free < r``, forces its free variables
    when ``ones == r`` or ``ones + free == r``, and otherwise branches on
    a free variable of the constraint with the fewest free f-edges; every
    leaf that fills all constraints is one solution.
    """
    p = cfg.params
    if ones_quota(p) is None:
        return 0
    r = p.r
    con_of_slot = (cfg.wiring // p.k).tolist()
    edges = [list(Counter(con_of_slot[v * p.d:(v + 1) * p.d]).items()) for v in range(p.n)]
    members = [sorted(set(row)) for row in cfg.constraint_members().tolist()]
    ones = [0] * p.m
    free = [p.k] * p.m
    value = [-1] * p.n
    trail = []

    def propagate(v: int, b: int) -> bool:
        pending = [(v, b)]
        while pending:
            v, b = pending.pop()
            if value[v] >= 0:
                continue
            value[v] = b
            trail.append(v)
            ok = True
            for a, c in edges[v]:
                f = free[a] - c
                o = ones[a] + b * c
                free[a], ones[a] = f, o
                if o > r or o + f < r:
                    ok = False
                elif f and (o == r or o + f == r):
                    forced = int(o < r)
                    pending.extend((u, forced) for u in members[a] if value[u] < 0)
            if not ok:
                return False
        return True

    def undo(mark: int):
        while len(trail) > mark:
            v = trail.pop()
            b = value[v]
            for a, c in edges[v]:
                free[a] += c
                ones[a] -= b * c
            value[v] = -1

    count = 0
    stack = []  # (trail mark, variable) of decisions whose value-one branch is pending
    ok = True
    while True:
        if ok:
            unfilled = [(f, a) for a, f in enumerate(free) if f]
            if unfilled:
                v = next(u for u in members[min(unfilled)[1]] if value[u] < 0)
                stack.append((len(trail), v))
                ok = propagate(v, 0)
                continue
            count += 1
        if not stack:
            break
        mark, v = stack.pop()
        undo(mark)
        ok = propagate(v, 1)
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


def pattern_search_reference(lam, p, value, step, basis, log_p, args):
    """The tilt refine one step per batch: ``sdpi._refine``'s moves, accept rule and steps.

    Scores the 2m moves +-step e_i from lambda, takes the first best
    strict improvement and grows the step by 1.5, or halves the step
    when no move improves, until it falls below ``sdpi._STEP_TOL``.
    The points are scored by the search's own ``_tilted`` and
    ``_ratio_rows``; what differs is only the batching.
    """
    moves = np.concatenate([np.eye(lam.size), -np.eye(lam.size)])
    while step >= sdpi._STEP_TOL:
        lams = lam + step * moves
        ps = sdpi._tilted(lams, basis, log_p)
        ratios = sdpi._ratio_rows(ps, *args)
        i = int(np.argmax(ratios))
        if ratios[i] > value:
            lam, p, value = lams[i], ps[i], float(ratios[i])
            step *= 1.5
        else:
            step *= 0.5
    return p, value


def occupation_line_reference(k: int, depth: int) -> tuple[float, OverlapPoint]:
    """Supremum of the occupation channel's ratio over the line of w1 alone, and its overlap.

    The output depends on the overlap only through w1, so at fixed w1 the
    ratio is largest at the overlap point of least input divergence,
    whose cells are ``sdpi._minimizing_cells``.  Scores that point at
    w1 = i / depth, from w1 = 1 down, with the search's ``_ratio_rows``;
    ties keep the larger w1.
    """
    p_star, channel = sdpi.occupation_channel(k)
    w1 = np.arange(depth, -1, -1) / depth
    p11, p00 = sdpi._minimizing_cells(k, w1)
    rows = np.column_stack([p00, 2.0 * (w1 - p11), p11])
    rows /= rows.sum(axis=1, keepdims=True)
    ratios = sdpi._ratio_rows(rows, channel.matrix, p_star.weights, channel.apply(p_star).weights)
    i = int(np.argmax(ratios))
    p = rows[i]
    return float(ratios[i]), OverlapPoint(float(p[1] / 2.0 + p[2]), float(p[2]))


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
    2l, which must divide it exactly.  Rooting at every variable, not
    only at a cycle's smallest as ``cycles._census_walk`` does, keeps this
    count independent of that rule.
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


def overlap_rows_reference(params: Params) -> list[tuple[int, int, np.ndarray]]:
    """Every term ln T(r1, r2) of the overlap region, one r1 at a time, as ``(r1, lo, terms)``.

    Each r1 gets its own range r2 = lo .. floor(d*r1/2), its own vertex
    and edge factors and its own terms; an empty fractional-quota region
    gives no rows.
    """
    n1 = ones_quota(params)
    if n1 is None:
        return []
    n, d, m = params.n, params.d, params.m
    lf = log_factorials(d * n)

    def log_c(a: int, b: int) -> float:
        return float(lf[a] - lf[b] - lf[a - b]) if 0 <= b <= a else float("-inf")

    log_pstar = np.log(input_pmf_star(params.k))
    rows = []
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
        rows.append((r1, lo, log_pv + log_pf - log_pe))
    return rows


def second_moment_ratio_reference(params: Params) -> float:
    """ln(E[Z^2]/E[Z]^2) summing every overlap term, one r1 at a time.

    Each r1's terms from :func:`overlap_rows_reference` get their own
    log-sum-exp, then the rows one more.  ``second_moment_exact_ratio``
    leaves out the terms more than 64 nats below the largest and sums
    the rest in other groups, so the two agree to a few ulps, not bit
    for bit.
    """
    rows = overlap_rows_reference(params)
    if not rows:
        return float("-inf")
    per_r1 = np.empty(len(rows))
    for i, (_, _, terms) in enumerate(rows):
        peak = terms.max()
        per_r1[i] = peak + np.log(np.exp(terms - peak).sum())
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
