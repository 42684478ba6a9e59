"""Short-cycle census of configurations and the matching Poisson constants.

A 2l-cycle is a closed alternating variable/constraint walk with l
distinct variables, l distinct constraints, and 2l distinct wiring
edges; lengths are counted in the factor-graph sense.  The census
enumerates directed rooted cycles (rooted at a variable, with a
direction) and divides by 2l, asserting exact divisibility first.

The enumeration is breadth-wise: a frontier of partial walks, one numpy
row each, steps through one constraint and one variable at a time.
Frontiers are cut into pieces of a fixed number of rows, taken
depth-first, so the frontier's peak memory depends on that cap and l_max
but not on n.

For l <= 2 a pair count evaluates the same quantities from equal keys
in row-sorted blocks of configurations; it is property-tested against
the walk enumeration.  The Monte Carlo driver samples and censuses
blocks of seeds, several in parallel, and gathers them in sample order,
so its output does not depend on the worker count, and its memory is set
by the block size, not by the number of samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, ParameterError
from .instances import (
    Configuration,
    Params,
    _equal_pairs,
    _sample_block,
    _seed_blocks,
    _two_cycle_counts,
)
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


def _census_walk(params: Params, wiring: np.ndarray, l_max: int) -> tuple:
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
        # Go on to unvisited variables, then into unvisited constraints
        # through the variable's other slots.
        for j in range(seen_vars.shape[1]):
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

    counts = []
    for l in range(1, l_max + 1):
        if directed[l] % (2 * l) != 0:
            raise AssertionError(
                f"directed {2 * l}-cycle count {directed[l]} not divisible by {2 * l}"
            )
        counts.append(directed[l] // (2 * l))
    return tuple(counts)


def _census_pairs(params: Params, wirings: np.ndarray, l_max: int) -> np.ndarray:
    """(rows, l_max) counts for l_max <= 2 of each row of a block of wirings.

    l=1: pairs of parallel edges between one variable and one constraint.
    l=2: pairs of member-pair entries {v1 < v2} of two constraints that
    name the same two variables, i.e. the pairs of entries with equal
    (v1, v2) less those with equal (v1, v2, constraint).
    """
    p = params
    rows = len(wirings)
    counts = np.empty((rows, l_max), dtype=np.int64)
    counts[:, 0] = _two_cycle_counts(p, wirings)
    if l_max >= 2:
        inverse = np.empty_like(wirings)
        inverse[np.arange(rows)[:, None], wirings] = np.arange(p.n_slots)
        members = np.sort((inverse // p.d).reshape(rows, p.m, p.k), axis=2)
        ii, jj = np.triu_indices(p.k, k=1)
        v1, v2 = members[:, :, ii], members[:, :, jj]
        entries = p.m * ii.size
        # keys (v1*n + v2)*m + a, sorted by (v1, v2) and then a; an entry
        # with v1 == v2 gets a key of its own past n*n*m, so it pairs with none
        dtype = np.int32 if (p.n * p.n + entries) * p.m < 2**31 else np.int64
        cons = np.arange(p.m, dtype=dtype)[:, None]
        own = ((p.n * p.n + np.arange(entries, dtype=dtype)) * p.m).reshape(p.m, ii.size)
        keys = np.where(v1 == v2, own, (v1 * p.n + v2).astype(dtype) * p.m + cons)
        keys = np.sort(keys.reshape(rows, entries), axis=1)
        counts[:, 1] = _equal_pairs(keys // p.m) - _equal_pairs(keys)
    return counts


def count_cycles(cfg: Configuration, l_max: int) -> CycleCensus:
    """Census of 2l-cycles for l = 1 .. l_max.

    A pair count for l_max <= 2, above that a breadth-wise enumeration
    of directed rooted walks over a numpy frontier.
    """
    if l_max < 1:
        raise ParameterError(f"need l_max >= 1, got {l_max}")
    if l_max <= 2:
        counts = _census_pairs(cfg.params, cfg.wiring[None, :], l_max)[0]
        return CycleCensus(tuple(counts.tolist()))
    return CycleCensus(_census_walk(cfg.params, cfg.wiring, l_max))


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
    wirings = _sample_block(params, seed, block)
    if l_max <= 2:
        return _census_pairs(params, wirings, l_max).tolist()
    return [_census_walk(params, w, l_max) for w in wirings]


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
    so results do not depend on the worker count.
    """
    if samples < 1:
        raise ParameterError(f"need samples >= 1, got {samples}")
    if l_max < 1:
        raise ParameterError(f"need l_max >= 1, got {l_max}")
    params = Params(n=n, d=d, k=k, r=1)  # no census reads r; 1 is valid for every k >= 2
    tasks = [(params, seed, block, l_max) for block in _seed_blocks(params, samples, threads)]
    blocks = parallel_map(_census_block, tasks, threads)
    return [CycleCensus(tuple(counts)) for block in blocks for counts in block]
