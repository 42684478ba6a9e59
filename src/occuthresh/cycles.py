"""Short-cycle census of configurations and the matching Poisson constants.

A 2l-cycle is a closed alternating variable/constraint walk with l
distinct variables, l distinct constraints, and 2l distinct wiring
edges; lengths are counted in the factor-graph sense.  The census
enumerates directed cycles rooted at their smallest variable, so each
cycle is found once in each direction, and divides by 2, asserting
exact divisibility first.  The walk grows as n*d*((k-1)(d-1))^(l-1)
per sample; past ``_WALK_STEPS`` over all samples it raises
CapacityError before any sampling.

The enumeration is breadth-wise: a frontier of partial walks, one numpy
row each, steps through one constraint and one variable at a time.
Frontiers are cut into pieces of a fixed number of rows, taken
depth-first, so the frontier's peak memory depends on that cap and l_max
but not on n.

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


# Largest frontier piece the walk expands at once.  Pieces go depth-first,
# so the frontier's peak memory is set by this cap and l_max, not by n.
_FRONTIER_ROWS = 2048

# Largest walk bound n*d*((k-1)(d-1))^(l_max-1), summed over samples,
# censused, the scale of moments._EXACT_TERMS; one sample at k = 4, d = 3,
# n = 400 reaches l_max = 7.
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


def _census_walk(params: Params, wiring: np.ndarray, l_max: int) -> tuple:
    """Cycle counts for l = 1 .. l_max of one wiring, by a breadth-wise walk.

    Each walk starts at a slot of its root variable and goes on only to
    variables above the root, so a cycle is found from its smallest
    variable, once in each direction.
    """
    p = params
    d, k = p.d, p.k
    to_con = wiring // k
    members = np.argsort(wiring).reshape(p.m, k)  # the inverse permutation
    offsets = np.arange(d)
    directed = [0] * (l_max + 1)

    def walk(depth: int, seen_vars: np.ndarray, seen_cons: np.ndarray, s_in: np.ndarray):
        # Row i: a walk from the root seen_vars[i, 0] through the variables
        # seen_vars[i] and the constraints seen_cons[i], the last of which
        # it entered by slot s_in[i].  At depth l_max only the root and the
        # current constraint are kept.
        if s_in.size > _FRONTIER_ROWS:
            for lo in range(0, s_in.size, _FRONTIER_ROWS):
                hi = lo + _FRONTIER_ROWS
                walk(depth, seen_vars[lo:hi], seen_cons[lo:hi], s_in[lo:hi])
            return
        # Leave the current constraint by any slot but the entering one;
        # a slot of the root closes a 2*depth-cycle.
        s_out = members[seen_cons[:, -1]]
        v = s_out // d
        keep = s_out != s_in[:, None]
        directed[depth] += int(np.count_nonzero(keep & (v == seen_vars[:, :1])))
        if depth == l_max:
            return
        # Go on to unvisited variables above the root, then into unvisited
        # constraints through the variable's other slots.
        keep &= v > seen_vars[:, :1]
        for j in range(1, seen_vars.shape[1]):
            keep &= v != seen_vars[:, j : j + 1]
        rows, cols = np.nonzero(keep)
        s_out, v, cons = s_out[rows, cols], v[rows, cols], seen_cons[rows]
        s_next = v[:, None] * d + offsets
        a_next = to_con[s_next]
        keep = s_next != s_out[:, None]
        for j in range(cons.shape[1]):
            keep &= a_next != cons[:, j : j + 1]
        r, c = np.nonzero(keep)
        s_next, a_next = s_next[r, c], a_next[r, c]
        if depth + 1 == l_max:
            walk(depth + 1, seen_vars[rows[r], :1], a_next[:, None], s_next)
        else:
            walk(
                depth + 1,
                np.column_stack([seen_vars[rows[r]], v[r]]),
                np.column_stack([cons[r], a_next]),
                s_next,
            )

    slots = np.arange(p.n_slots)
    walk(1, (slots // d)[:, None], to_con[:, None], slots)

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

    A wedge count for l_max <= 2, above that a breadth-wise enumeration
    of directed walks, each rooted at its cycle's smallest variable, over
    a numpy frontier.  Raises CapacityError if that walk's bound
    n*d*((k-1)(d-1))^(l_max-1) is past ``_WALK_STEPS``.
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
