"""Deciding and counting r-in-k occupation solutions on configurations.

An assignment solves a configuration when every constraint sees exactly
``r`` of its k f-edges wired to value-one variables, counting
multiplicity.  Deciding and counting use independent exact algorithms.

Deciding is a propagation search, exact cover with multiplicities
(Knuth, TAOCP 4B 7.2.2.1): each constraint keeps ``(ones, free)`` f-edge
tallies, is in conflict when ``ones > r`` or ``ones + free < r``, forces
its free variables to 0 when ``ones == r`` and to 1 when
``ones + free == r``, and otherwise branches on a free variable of the
first constraint with the fewest free f-edges.  Assignments are undone
through a trail, the search keeps an explicit stack, and it stops at
the first solution.  At k = 2r the complement of a solution is a
solution on the same wiring (each tally r becomes k - r = r), so the
first decision, made with nothing assigned, skips its 1-branch: any
solution setting that variable to 1 has a complement setting it to 0,
found in the 0-branch.  This halves the refutation of an unsatisfiable
instance and loses no satisfiable one (symmetry breaking: Crawford,
Ginsberg, Luks & Roy, KR 1996).

Counting is a frontier dynamic program.  Variables are taken in
breadth-first order over constraints; a state holds the ones-tallies of
the constraints opened and not yet closed, as base-(r+1) digits of one
integer, and equal states merge, adding their counts.  Both branches of
a variable are filtered on the old digits: the 0-branch needs
``dig + left >= r`` and the 1-branch ``dig + c <= r <= dig + c + left``
for each constraint it meets ``c`` times with ``left`` f-edges still
to come, so a constraint closes with its digit at r, and the digit is
cleared for reuse.  The residual formula rarely splits into
components, so merging equal states pays where component caching
(Thurley, SAT 2006) does not.

Neither is limited by n: each raises CapacityError past a budget on its
own work, the search past ``_SEARCH_WORK // m`` nodes and the DP past
``_FRONTIER_STATES`` states over the 64-bit words a state needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ContractViolation, ParameterError
from .instances import Configuration, Params, _sample_block, _seed_blocks, child_seed
from .parallel import parallel_map

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
    """True iff every constraint has exactly r one-valued f-edges under x.

    ``x`` must hold n entries, each 0 or 1 (booleans too); any other
    length or entry raises ContractViolation.
    """
    p = cfg.params
    x = np.asarray(x)
    if x.shape != (p.n,):
        raise ContractViolation(f"assignment must have length {p.n}, got shape {x.shape}")
    if not np.all((x == 0) | (x == 1)):
        raise ContractViolation("assignment entries must be 0 or 1")
    tallies = x[cfg.constraint_members()].sum(axis=1)
    return bool(np.all(tallies == p.r))


def _incidence(cfg: Configuration) -> tuple[list, list]:
    """(constraint, multiplicity) pairs per variable; sorted distinct variables per constraint."""
    p = cfg.params
    con_of_slot = (cfg.wiring // p.k).tolist()
    edges = []
    for v in range(p.n):
        tally = {}  # in order of first appearance
        for a in con_of_slot[v * p.d:(v + 1) * p.d]:
            tally[a] = tally.get(a, 0) + 1
        edges.append(list(tally.items()))
    members = [sorted(set(row)) for row in cfg.constraint_members().tolist()]
    return edges, members


# Search nodes times constraints one decision may take: a node's
# branching scan runs over all m constraints, so at k = 4, d = 3 a node
# took 17 us at n = 128 and 480 us at n = 20000, and _SEARCH_WORK // m
# nodes take about 17 s and 3 s there.  Seeded decisions took at most
# 11,900 nodes at k = 4, d = 3, n = 96 and 112,841 at k = 6, d = 4, n = 96.
_SEARCH_WORK = 10**8


def has_solution(cfg: Configuration) -> bool:
    """True iff cfg has a solution, by the propagation search of the module docstring.

    Agrees with ``count_solutions(cfg) > 0``.  At k = 2r only the
    0-branch of the first decision is searched; the complement of any
    solution in its 1-branch lies in its 0-branch.  Past
    ``_SEARCH_WORK // m`` nodes it raises CapacityError.
    """
    p = cfg.params
    if ones_quota(p) is None:
        return False
    r, k = p.r, p.k
    edges, members = _incidence(cfg)
    ones = [0] * p.m
    free = [k] * p.m
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
                    for u in members[a]:
                        if value[u] < 0:
                            pending.append((u, forced))
            if not ok:
                return False
        return True

    def undo(mark: int):
        for v in trail[mark:]:
            b = value[v]
            for a, c in edges[v]:
                free[a] += c
                ones[a] -= b * c
            value[v] = -1
        del trail[mark:]

    stack = []  # (trail mark, variable) of decisions whose value-one branch is pending
    ok = True
    nodes = _SEARCH_WORK // p.m
    for _ in range(nodes):  # one node per pass: a decision or a value-one branch
        if ok:
            # branch in the first constraint with the fewest free f-edges
            for f in range(1, k + 1):
                if f in free:
                    a = free.index(f)
                    break
            else:
                return True
            for v in members[a]:
                if value[v] < 0:
                    break
            # at k = 2r the first decision (empty trail) keeps only its
            # 0-branch, which holds the complement of any solution with v = 1
            if trail or 2 * r != k:
                stack.append((len(trail), v))
            ok = propagate(v, 0)
            continue
        if not stack:
            return False
        mark, v = stack.pop()
        undo(mark)
        ok = propagate(v, 1)
    raise CapacityError(
        f"deciding at n={p.n} passed {nodes} search nodes, "
        f"the limit of {_SEARCH_WORK} // m at m={p.m}"
    )


# Most distinct frontier states the counting DP keeps after any one
# variable, divided by the 64-bit words a state needs (1 in int64).
# Seeded sweeps of 240 families (k <= 8, d <= 6, every r, n in
# {16, 24, 32}) peaked at 2.1e4 states; k = 6, d = 3 reached up to
# 7.2e6 over six seeds at n = 72.  A merge holds up to twice the states
# as candidates, about 62 bytes each in int64, so the DP stays under
# about 1.3 GB.  A Python-integer state costs more; at k = 4, d = 3
# refusals peaked at 665 and 741 MB (n = 120 and 160, 2 words), 565 MB
# (n = 200, 3 words) and 63 MB (n = 4000, 43 words).
_FRONTIER_STATES = 10**7


def _bfs_order(edges: list, members: list) -> list[int]:
    """Variables in breadth-first order over constraints, from constraint 0.

    Each constraint taken from the queue emits its unemitted members in
    increasing order, then queues their constraints not yet reached; an
    exhausted queue restarts at the next unreached constraint.
    """
    emitted = [False] * len(edges)
    reached = [False] * len(members)
    order = []
    for start in range(len(members)):
        if reached[start]:
            continue
        reached[start] = True
        queue = [start]
        for a in queue:  # the queue grows while it is read
            new = [u for u in members[a] if not emitted[u]]
            for u in new:
                emitted[u] = True
            order += new
            for u in new:
                for b, _ in edges[u]:
                    if not reached[b]:
                        reached[b] = True
                        queue.append(b)
    return order


def _frontier_steps(p: Params, edges: list, members: list) -> tuple[list, int]:
    """One step per variable of the BFS order, and the most digits a state needs.

    A step is ``(checks, clear, shift)``.  ``checks`` pairs the place
    value of each constraint the variable meets with a table over its
    digit (the constraint's ones so far): bit 1 is set where the
    0-branch keeps the state, bit 2 where the 1-branch does.  The
    0-branch subtracts ``clear``, which empties the digits of the
    constraints this variable closes, and the 1-branch adds ``shift``.
    A closed constraint's digit position is reused.
    """
    r, base = p.r, p.r + 1
    left = [p.k] * p.m
    position = [0] * p.m
    unused, width = [], 0
    steps, tables = [], {}
    for v in _bfs_order(edges, members):
        checks, closed, ones = [], [], 0
        for a, c in edges[v]:
            if left[a] == p.k:
                if unused:
                    position[a] = unused.pop()
                else:
                    position[a], width = width, width + 1
            left[a] -= c
            place = base ** position[a]
            if (c, left[a]) not in tables:
                # the 0-branch must still reach r; the 1-branch must not
                # pass r and must still reach it (at the last f-edge: hit it)
                tables[c, left[a]] = np.array(
                    [(o + left[a] >= r) + 2 * (o + c <= r <= o + c + left[a]) for o in range(base)],
                    dtype=np.int8,
                )
            checks.append((place, tables[c, left[a]]))
            ones += c * place
            if not left[a]:
                closed.append(position[a])
        clear = sum(r * base**q for q in closed)
        steps.append((checks, clear, ones - clear))
        unused += closed
    return steps, width


def count_solutions(cfg: Configuration) -> int:
    """Exact solution count by the frontier dynamic program of the module docstring.

    0 immediately when the ones quota is fractional; past
    ``_FRONTIER_STATES`` distinct states, divided by the 64-bit words a
    state needs, it raises CapacityError.
    """
    p = cfg.params
    if ones_quota(p) is None:
        return 0
    base = p.r + 1
    steps, width = _frontier_steps(p, *_incidence(cfg))
    words = 1 + (base**width).bit_length() // 64  # 64-bit words a state needs
    # fixed-width integers while they cannot overflow, Python integers past that
    states = np.zeros(1, dtype=np.int64 if words == 1 else object)
    counts = np.ones(1, dtype=np.int64 if p.n < 63 else object)
    limit = _FRONTIER_STATES // words
    for checks, clear, shift in steps:
        fits = 3
        for place, table in checks:
            fits = fits & table[(states // place % base).astype(np.intp, copy=False)]
        keep0, keep1 = (fits & 1).view(bool), (fits >> 1).view(bool)
        # each branch maps distinct sorted states to distinct sorted
        # states, so only a state both branches reach needs merging
        if not keep1.any():
            states, counts = states.compress(keep0) - clear, counts.compress(keep0)
            if not len(states):
                return 0
        elif not keep0.any():
            states, counts = states.compress(keep1) + shift, counts.compress(keep1)
        else:
            states = np.concatenate(
                (states.compress(keep0) - clear, states.compress(keep1) + shift)
            )
            counts = np.concatenate((counts.compress(keep0), counts.compress(keep1)))
            order = np.argsort(states, kind="stable")
            states, counts = states[order], counts[order]
            starts = np.flatnonzero(np.concatenate(([True], states[1:] != states[:-1])))
            states, counts = states[starts], np.add.reduceat(counts, starts)
            if len(states) > limit:
                raise CapacityError(
                    f"exact counting at n={p.n} reached {len(states)} frontier states, "
                    f"over the limit of {limit}"
                )
    return int(counts.sum())


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


def _sat_block(args) -> int:
    _, params, seed, block = args
    return sum(bool(has_solution(Configuration(params, w)))
               for w in _sample_block(params, seed, block))


def estimate_sat_probability(
    k: int,
    d: int,
    n_list,
    trials: int,
    seed: int,
    r: int = 2,
    threads: int = 1,
) -> list[SatProbRow]:
    """Fraction of satisfiable instances per n, with Wilson 95% intervals.

    Trial ``t`` for the i-th entry of ``n_list`` runs on child seed
    ``child_seed(child_seed(seed, i), t)``.  Trials run in blocks of
    consecutive ``t`` whose satisfiable counts are summed, so any worker
    count gives identical output, and memory is set by the block size,
    not by ``trials``.
    """
    if trials < 1:
        raise ParameterError(f"need trials >= 1, got {trials}")
    families = [Params(n=n, d=d, k=k, r=r) for n in n_list]  # every n validated up front
    # blocks of child seeds of child_seed(seed, i) for the i-th n, all in
    # one map, so one worker pool serves all of n_list
    tasks = [
        (i, params, child_seed(seed, i), block)
        for i, params in enumerate(families)
        for block in _seed_blocks(params, trials, threads)
    ]
    sat_counts = [0] * len(families)
    for task, sat in zip(tasks, parallel_map(_sat_block, tasks, threads)):
        sat_counts[task[0]] += sat
    rows = []
    for n, sat in zip(n_list, sat_counts):
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
