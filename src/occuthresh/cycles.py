"""Short-cycle census of configurations and the matching Poisson constants.

A 2l-cycle is a closed alternating variable/constraint walk with l
distinct variables, l distinct constraints, and 2l distinct wiring
edges; lengths are counted in the factor-graph sense.  The census
counts directed cycles rooted at their smallest variable, so each
cycle is found once in each direction, and divides by 2, asserting
exact divisibility first.

For l_max >= 3 it joins half-walks at their middle variable.  From each
root, numpy rows hold every half-walk of depth 1 .. ceil(l_max/2): a
path through t constraints and t variables, all distinct, the variables
above the root.  A directed 2l-cycle is one ordered pair of half-walks
of depths ceil(l/2) and floor(l/2) with the same root and last variable
that share nothing else; pairs are found by sorting both sets on (root,
last variable).  Roots go in consecutive batches sized so that a batch's
deepest set, and each chunk of its candidate pairs, holds a fixed number
of rows, so peak memory depends on that cap and l_max but not on n.  A
full walk's bound n*d*((k-1)(d-1))^(l_max-1) per sample bounds this
work loosely from above; past ``_WALK_STEPS`` over all samples it
raises CapacityError before any sampling.

For l <= 2 a wedge count evaluates the same quantities over blocks of
configurations: a wedge is a pair of one variable's slots, named by the
two constraints it is wired to.  It is property-tested against an
independent walk enumeration.  The Monte Carlo driver samples and censuses
blocks of seeds, several in parallel, and gathers them in sample order,
so its output does not depend on the worker count, and its memory is set
by the block size, not by the number of samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ContractViolation, ParameterError
from .instances import Configuration, Params, _sample_block, _seed_blocks, _wedges
from .numerics import log_factorials
from .parallel import parallel_map


@dataclass(frozen=True)
class CycleCensus:
    """counts[l-1] = number of 2l-cycles, for l = 1 .. l_max."""

    counts: tuple

    @property
    def l_max(self) -> int:
        return len(self.counts)

    def count(self, l: int) -> int:
        return self.counts[l - 1]


# Most rows a batch of roots may hold in its deepest half-walk set, and
# most candidate pairs joined at once.  Roots go in batches that fit, so
# the walk's peak memory is set by this cap and l_max, not by n.
_HALF_WALK_ROWS = 1 << 15

# Largest walk bound n*d*((k-1)(d-1))^(l_max-1), summed over samples,
# censused, the scale of moments._EXACT_TERMS; one sample at k = 4, d = 3,
# n = 400 reaches l_max = 7.  The half-walk join does far less work than
# this bound, which is now a loose admission rule.
_WALK_STEPS = 2 * 10**8


def _check_walk_bound(params: Params, l_max: int, samples: int = 1):
    """Raise CapacityError if ``samples`` walks to l_max are past ``_WALK_STEPS`` together."""
    if l_max <= 2:
        return
    p = params
    bound = samples * p.n_slots * ((p.k - 1) * (p.d - 1)) ** (l_max - 1)
    if bound > _WALK_STEPS:
        raise CapacityError(
            f"cycle walk to l_max={l_max} at n={p.n}, d={p.d}, k={p.k} may take {bound} steps "
            f"in {samples} sample(s), over the limit of {_WALK_STEPS}; lower l_max, n or samples"
        )


def _half_walk_step(to_con: np.ndarray, members: np.ndarray, d: int, walks: tuple) -> tuple:
    """The half-walks one constraint and one variable deeper than ``walks``.

    A half-walk set is ``(root, cons, vars)``: row i runs from root[i]
    through the constraints cons[0][i], cons[1][i], ... and the variables
    vars[0][i], vars[1][i], ..., all distinct and the variables above the
    root, one row per choice of wiring slots.  Distinctness alone keeps a
    walk from leaving a variable by the slot it arrived by (that slot's
    constraint is visited) or a constraint by the slot it entered by (that
    slot's variable is visited).
    """
    root, cons, vars_ = walks
    # Leave the last variable by any slot into an unvisited constraint ...
    c = to_con[vars_[-1][:, None] * d + np.arange(d)]
    keep = c != cons[0][:, None]
    for col in cons[1:]:
        keep &= c != col[:, None]
    rows, cols = np.nonzero(keep)
    c = c[rows, cols]
    # ... and leave that by any slot to an unvisited variable above the root.
    v = members[c] // d
    keep = v > root[rows, None]
    for col in vars_:
        keep &= v != col[rows, None]
    r, j = np.nonzero(keep)
    parent = rows[r]
    return (
        root[parent],
        [col[parent] for col in cons] + [c[r]],
        [col[parent] for col in vars_] + [v[r, j]],
    )


def _join_count(a_walks: tuple, a_keyed: tuple, b_walks: tuple, b_keyed: tuple) -> int:
    """Ordered pairs (A, B) with equal root and last variable that share nothing else.

    ``*_keyed`` is a set's sorted keys root*n + last variable and the
    order that sorts them, so the candidates of each A are one range of
    B's, found by ``searchsorted`` with sorted queries.  Candidates are
    taken in chunks of at most ``_HALF_WALK_ROWS`` pairs, past one A's
    range.
    """
    _, a_cons, a_vars = a_walks
    _, b_cons, b_vars = b_walks
    a_keys, a_order = a_keyed
    b_keys, b_order = b_keyed
    lo = np.searchsorted(b_keys, a_keys, "left")
    counts = np.searchsorted(b_keys, a_keys, "right") - lo
    ends = np.cumsum(counts)
    total = 0
    start = 0
    while start < a_keys.size:
        base = int(ends[start - 1]) if start else 0
        stop = a_keys.size
        if ends[-1] - base > _HALF_WALK_ROWS:
            stop = max(start + 1, int(np.searchsorted(ends, base + _HALF_WALK_ROWS, "right")))
        c = counts[start:stop]
        size = int(ends[stop - 1]) - base
        if size:
            ia = np.repeat(a_order[start:stop], c)
            rank = np.arange(size) - np.repeat(ends[start:stop] - c - base, c)
            ib = b_order[np.repeat(lo[start:stop], c) + rank]
            # Every constraint distinct, every variable but the last too.
            keep = np.ones(size, dtype=bool)
            for a_cols, b_cols in ((a_cons, b_cons), (a_vars[:-1], b_vars[:-1])):
                b_vals = [col[ib] for col in b_cols]
                for col in a_cols:
                    a_vals = col[ia]
                    for vals in b_vals:
                        keep &= a_vals != vals
            total += int(np.count_nonzero(keep))
        start = stop
    return total


def _census_walk(params: Params, wiring: np.ndarray, l_max: int) -> tuple:
    """Cycle counts for l = 1 .. l_max of one wiring, by joining half-walks.

    A directed 2l-cycle rooted at its smallest variable r, l >= 2, is
    one ordered pair of half-walks from r, A of depth ceil(l/2) and B of
    depth floor(l/2) (B runs the cycle's second half backwards), that end
    at the same variable and share no other variable or constraint.
    Each cycle is found once in each direction.  Roots go in consecutive
    batches, so a batch's deepest set holds at most ``_HALF_WALK_ROWS``
    rows.
    """
    p = params
    d, k = p.d, p.k
    to_con = wiring // k
    members = np.argsort(wiring).reshape(p.m, k)  # the inverse permutation
    half = (l_max + 1) // 2
    per_root = d * (k - 1) * ((k - 1) * (d - 1)) ** (half - 1)  # most half-walks of depth `half`
    batch = max(1, _HALF_WALK_ROWS // per_root)
    directed = [0] * (l_max + 1)
    for first in range(0, p.n, batch):
        # Depth 1: from each slot of a root into its constraint and out by
        # another slot; a slot of the root closes a 2-cycle.
        s = np.arange(first * d, min(first + batch, p.n) * d)
        root = s // d
        s_out = members[to_con[s]]
        v = s_out // d
        directed[1] += int(np.count_nonzero((s_out != s[:, None]) & (v == root[:, None])))
        if l_max == 1:
            continue
        r, j = np.nonzero(v > root[:, None])
        walks = [None, (root[r], [to_con[s[r]]], [v[r, j]])]
        while len(walks) <= half:
            walks.append(_half_walk_step(to_con, members, d, walks[-1]))
        keyed = [None]
        for roots, _, vars_ in walks[1:]:
            keys = roots * p.n + vars_[-1]
            order = np.argsort(keys)
            keyed.append((keys[order], order))
        for l in range(2, l_max + 1):
            a, b = (l + 1) // 2, l // 2
            directed[l] += _join_count(walks[a], keyed[a], walks[b], keyed[b])

    odd = [l for l in range(1, l_max + 1) if directed[l] % 2]
    if odd:
        raise AssertionError(f"directed {2 * odd[0]}-cycle count {directed[odd[0]]} is odd")
    return tuple(directed[l] // 2 for l in range(1, l_max + 1))


def _equal_pairs(rows: np.ndarray) -> np.ndarray:
    """Per row of a row-sorted block, the number of pairs of equal entries.

    A run of c equal entries holds c - g pairs at distance g, and these
    sum to c(c-1)/2 over g >= 1; no pair at distance g means no run
    longer than g.
    """
    total = np.zeros(len(rows), dtype=np.int64)
    for g in range(1, rows.shape[1]):
        equal = rows[:, g:] == rows[:, :-g]
        if not equal.any():
            break
        total += equal.sum(axis=1)
    return total


def _census_pairs(params: Params, wirings: np.ndarray, l_max: int) -> np.ndarray:
    """(rows, l_max) counts for l_max <= 2 of each row of a block of wirings.

    l=1: wedges whose two slots meet one constraint (a == b).
    l=2: pairs of wedges of two variables that meet the same two
    constraints {a, b} with a != b, i.e. the pairs of wedges with equal
    {a, b} less those with equal ({a, b}, variable).
    """
    p = params
    rows = len(wirings)
    pairs = p.d * (p.d - 1) // 2
    wedges = p.n * pairs
    # keys ({a, b}*n + v): a wedge with a == b gets a key of its own past
    # m*m*n, so it pairs with none
    dtype = np.int32 if (p.m * p.m + wedges) * p.n < 2**31 else np.int64
    a, b = _wedges(p, wirings, dtype)
    loops = np.flatnonzero(a == b)  # flat: row*wedges + wedge
    counts = np.empty((rows, l_max), dtype=np.int64)
    counts[:, 0] = np.bincount(loops // wedges, minlength=rows)
    if l_max >= 2:
        keys = np.minimum(a, b)
        keys *= p.m
        keys += np.maximum(a, b, out=b)
        keys *= p.n
        keys += np.arange(p.n, dtype=dtype).repeat(pairs)
        keys.put(loops, (p.m * p.m + loops % wedges) * p.n)
        keys.sort(axis=1)
        counts[:, 1] = _equal_pairs(keys // p.n) - _equal_pairs(keys)
    return counts


def _census_rows(params: Params, wirings: np.ndarray, l_max: int) -> list:
    """Counts for l = 1 .. l_max of each row of a block of wirings: wedges or the walk."""
    if l_max <= 2:
        return _census_pairs(params, wirings, l_max).tolist()
    return [_census_walk(params, w, l_max) for w in wirings]


def count_cycles(cfg: Configuration, l_max: int) -> CycleCensus:
    """Census of 2l-cycles for l = 1 .. l_max.

    A wedge count for l_max <= 2, above that a join of half-walks from
    each cycle's smallest variable, met at the cycle's middle variable.
    Raises CapacityError if a full walk's bound n*d*((k-1)(d-1))^(l_max-1),
    a loose admission rule for the join, is past ``_WALK_STEPS``.
    """
    if l_max < 1:
        raise ParameterError(f"need l_max >= 1, got {l_max}")
    _check_walk_bound(cfg.params, l_max)
    return CycleCensus(tuple(_census_rows(cfg.params, cfg.wiring[None, :], l_max)[0]))


def lambda_l(l: int, k: int, d: int) -> float:
    """Limiting mean of the 2l-cycle count: ((k-1)(d-1))^l / (2l)."""
    if l < 1:
        raise ParameterError(f"need l >= 1, got {l}")
    return ((k - 1) * (d - 1)) ** l / (2.0 * l)


def delta_l(l: int, k: int) -> float:
    """Conditioning distortion of the 2l-cycle count: (-1/(k-1))^l."""
    if l < 1:
        raise ParameterError(f"need l >= 1, got {l}")
    if k < 2:
        raise ParameterError(f"need k >= 2, got {k}")
    return (-1.0 / (k - 1)) ** l


def mu_l(l: int, k: int, d: int) -> float:
    """Solution-conditioned cycle rate: lambda_l * (1 + delta_l)."""
    return lambda_l(l, k, d) * (1.0 + delta_l(l, k))


def markov_trace_delta(l: int, k: int) -> float:
    """delta_l recomputed as Tr(W^l) - 1 for the explicit two-state chain.

    W is column stochastic with W[1,1] = 1/(k-1) and W[1,0] = 2/(k-1);
    its eigenvalues are 1 and -1/(k-1), so this must equal delta_l.
    """
    if l < 1:
        raise ParameterError(f"need l >= 1, got {l}")
    c = 1.0 / (k - 1)
    w = np.array([[1.0 - 2.0 * c, 1.0 - c], [2.0 * c, c]])
    return float(np.trace(np.linalg.matrix_power(w, l))) - 1.0


@dataclass(frozen=True)
class PoissonFitRow:
    l: int
    empirical_mean: float
    lam: float
    z_score: float
    empirical_var: float
    chi2: float
    dof: int


def _poisson_pmf(lam: float, upto: int) -> np.ndarray:
    ks = np.arange(upto + 1)
    logs = -lam + ks * math.log(lam) - log_factorials(upto)
    return np.exp(logs)


def poisson_gof(samples, k: int, d: int) -> list[PoissonFitRow]:
    """Per-l comparison of a census sample against Poisson(lambda_l).

    Reports moments, a z-score for the mean, and a chi-square statistic
    over count bins merged to expected mass >= 5.  Statistics only; no
    pass/fail is attached.
    """
    samples = list(samples)
    if len(samples) < 2:
        raise ContractViolation("need at least 2 census samples")
    l_max = min(c.l_max for c in samples)
    data = np.array([[c.count(l) for l in range(1, l_max + 1)] for c in samples], dtype=float)
    n_samples = data.shape[0]
    rows = []
    for l in range(1, l_max + 1):
        xs = data[:, l - 1]
        lam = lambda_l(l, k, d)
        mean = float(xs.mean())
        var = float(xs.var(ddof=1))
        z = (mean - lam) / math.sqrt(lam / n_samples)
        top = int(xs.max())
        pmf = _poisson_pmf(lam, top)
        expected_raw = np.append(pmf, max(0.0, 1.0 - pmf.sum())) * n_samples
        observed_raw = np.append(np.bincount(xs.astype(int), minlength=top + 1), 0.0)
        obs_bins, exp_bins = [], []
        acc_o = acc_e = 0.0
        for o, e in zip(observed_raw, expected_raw):
            acc_o += o
            acc_e += e
            if acc_e >= 5.0:
                obs_bins.append(acc_o)
                exp_bins.append(acc_e)
                acc_o = acc_e = 0.0
        if acc_e > 0 and obs_bins:
            obs_bins[-1] += acc_o
            exp_bins[-1] += acc_e
        chi2 = float(sum((o - e) ** 2 / e for o, e in zip(obs_bins, exp_bins)))
        dof = max(1, len(obs_bins) - 1)
        rows.append(
            PoissonFitRow(
                l=l,
                empirical_mean=mean,
                lam=lam,
                z_score=z,
                empirical_var=var,
                chi2=chi2,
                dof=dof,
            )
        )
    return rows


def pair_correlation(samples, l_a: int, l_b: int) -> float:
    """Pearson correlation between the counts of 2*l_a and 2*l_b cycles."""
    xs = np.array([c.count(l_a) for c in samples], dtype=float)
    ys = np.array([c.count(l_b) for c in samples], dtype=float)
    return float(np.corrcoef(xs, ys)[0, 1])


def _census_block(args) -> list:
    params, seed, block, l_max = args
    return _census_rows(params, _sample_block(params, seed, block), l_max)


def census_samples(
    k: int,
    d: int,
    n: int,
    samples: int,
    seed: int,
    l_max: int = 2,
    threads: int = 1,
) -> list[CycleCensus]:
    """Censuses of ``samples`` independent configurations.

    Sample ``i`` runs on ``child_seed(seed, i)``.  Samples are drawn and
    censused in blocks of consecutive indices, gathered in sample order,
    so results do not depend on the worker count.  Walks past
    ``_WALK_STEPS`` over all samples together raise CapacityError
    before any sampling.
    """
    if samples < 1:
        raise ParameterError(f"need samples >= 1, got {samples}")
    if l_max < 1:
        raise ParameterError(f"need l_max >= 1, got {l_max}")
    params = Params(n=n, d=d, k=k, r=1)  # no census reads r; 1 is valid for every k >= 2
    _check_walk_bound(params, l_max, samples)
    tasks = [(params, seed, block, l_max) for block in _seed_blocks(params, samples, threads)]
    blocks = parallel_map(_census_block, tasks, threads)
    return [CycleCensus(tuple(counts)) for block in blocks for counts in block]
