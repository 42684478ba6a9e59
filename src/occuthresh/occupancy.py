"""Deciding and counting r-in-k occupation solutions on configurations.

An assignment solves a configuration when every constraint sees exactly
``r`` of its k f-edges wired to value-one variables, counting
multiplicity.  Deciding and counting share one exact search, exact cover
with multiplicities (Knuth, TAOCP 4B 7.2.2.1): each constraint keeps
``(ones, free)`` f-edge tallies, is in conflict when ``ones > r`` or
``ones + free < r``, forces its free variables to 0 when ``ones == r``
and to 1 when ``ones + free == r``, and otherwise branches on a free
variable of the constraint with the fewest free f-edges.  Assignments
are undone through a trail and the search keeps an explicit stack.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ContractViolation, ParameterError
from .instances import Configuration, Params, child_seed, sample_configuration
from .parallel import parallel_map

ENUMERATION_CAP = 32

_WILSON_Z = 1.959963984540054  # 97.5% normal quantile


def ones_quota(params: Params) -> int | None:
    """Number of ones forced on any solution: r*n/k, or ``None`` if fractional.

    Absent quota means the instance has no solutions at all.
    """
    rn = params.r * params.n
    if rn % params.k != 0:
        return None
    return rn // params.k


def is_solution(cfg: Configuration, x) -> bool:
    """True iff every constraint has exactly r one-valued f-edges under x."""
    p = cfg.params
    x = np.asarray(x)
    if x.shape != (p.n,):
        raise ContractViolation(f"assignment must have length {p.n}, got shape {x.shape}")
    tallies = x[cfg.constraint_members()].sum(axis=1)
    return bool(np.all(tallies == p.r))


def _search(cfg: Configuration, early_exit: bool) -> int:
    p = cfg.params
    if ones_quota(p) is None:
        return 0
    r = p.r
    con_of_slot = (cfg.wiring // p.k).tolist()
    # (constraint, multiplicity) pairs per variable; distinct variables per constraint.
    edges = [list(Counter(con_of_slot[v * p.d:(v + 1) * p.d]).items()) for v in range(p.n)]
    members = [sorted(set(row)) for row in cfg.constraint_members().tolist()]
    ones = [0] * p.m
    free = [p.k] * p.m
    value = [-1] * p.n
    trail = []

    def propagate(v: int, b: int) -> bool:
        # Assign v = b and every value it forces; False on a conflict.  A
        # variable forced twice is skipped the second time: if the values
        # differ, the first assignment already overfilled or starved the
        # constraint that queued the second.
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
            if early_exit:
                break
        if not stack:
            break
        mark, v = stack.pop()
        undo(mark)
        ok = propagate(v, 1)
    return count


def _check_cap(n: int, cap: int):
    if n > cap:
        raise CapacityError(
            f"exact enumeration capped at n={cap} (got n={n}); "
            "use Monte Carlo estimation for larger instances"
        )


def count_solutions(cfg: Configuration, cap: int = ENUMERATION_CAP) -> int:
    """Exact solution count; 0 immediately when the ones quota is fractional."""
    _check_cap(cfg.params.n, cap)
    return _search(cfg, early_exit=False)


def has_solution(cfg: Configuration, cap: int = ENUMERATION_CAP) -> bool:
    """Early-exit satisfiability decision; agrees with count_solutions > 0."""
    _check_cap(cfg.params.n, cap)
    return _search(cfg, early_exit=True) > 0


@dataclass(frozen=True)
class OverlapProfile:
    """Similarity of two solutions: shared ones and doubly-shared constraints.

    ``r1`` counts variables taking one under both solutions; ``r2``
    counts constraints with at least two f-edges wired to such shared-one
    variables.  ``w = (r1/n1, r2/m)`` is the normalized profile.
    """

    r1: int
    r2: int
    n1: int
    m: int

    @property
    def w1(self) -> float:
        return self.r1 / self.n1

    @property
    def w2(self) -> float:
        return self.r2 / self.m


def overlap(cfg: Configuration, x, y) -> OverlapProfile:
    """Overlap profile of two solutions; raises if either fails to solve cfg."""
    if not is_solution(cfg, x):
        raise ContractViolation("x is not a solution of the configuration")
    if not is_solution(cfg, y):
        raise ContractViolation("y is not a solution of the configuration")
    p = cfg.params
    shared = np.asarray(x).astype(np.int64) & np.asarray(y).astype(np.int64)
    r1 = int(shared.sum())
    shared_edges = shared[cfg.constraint_members()].sum(axis=1)
    r2 = int((shared_edges >= 2).sum())
    quota = ones_quota(p)
    return OverlapProfile(r1=r1, r2=r2, n1=int(quota), m=p.m)


@dataclass(frozen=True)
class SatProbRow:
    n: int
    trials: int
    sat_count: int
    sat_fraction: float
    ci_low: float
    ci_high: float
    seed: int


def _wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    z = _WILSON_Z
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def _sat_trial(args) -> bool:
    n, d, k, r, seed, cap = args
    cfg = sample_configuration(Params(n=n, d=d, k=k, r=r), seed)
    return has_solution(cfg, cap=cap)


def estimate_sat_probability(
    k: int,
    d: int,
    n_list,
    trials: int,
    seed: int,
    r: int = 2,
    threads: int = 1,
    cap: int = ENUMERATION_CAP,
) -> list[SatProbRow]:
    """Fraction of satisfiable instances per n, with Wilson 95% intervals.

    Trial ``t`` for the i-th entry of ``n_list`` runs on child seed
    ``child_seed(child_seed(seed, i), t)``; results reduce in trial
    order, so any worker count gives identical output.
    """
    if trials < 1:
        raise ParameterError(f"need trials >= 1, got {trials}")
    for n in n_list:
        _check_cap(n, cap)
        Params(n=n, d=d, k=k, r=r)  # validate the family up front
    # every (n, trial) task in one map, so one worker pool serves all of n_list
    tasks = [
        (n, d, k, r, child_seed(child_seed(seed, i), t), cap)
        for i, n in enumerate(n_list)
        for t in range(trials)
    ]
    outcomes = parallel_map(_sat_trial, tasks, threads)
    rows = []
    for i, n in enumerate(n_list):
        sat = sum(bool(o) for o in outcomes[i * trials : (i + 1) * trials])
        lo, hi = _wilson_interval(sat, trials)
        rows.append(
            SatProbRow(
                n=n,
                trials=trials,
                sat_count=sat,
                sat_fraction=sat / trials,
                ci_low=lo,
                ci_high=hi,
                seed=seed,
            )
        )
    return rows
