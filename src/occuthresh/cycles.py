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

For l <= 2 a vectorized pair-count evaluates the same quantities from
edge multiplicities; it is property-tested against the walk enumeration
and used by the Monte Carlo driver, where censuses of many samples run
in parallel over sample seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, ParameterError
from .instances import Configuration, Params, child_seed, count_two_cycles, sample_configuration
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


def _census_walk(cfg: Configuration, l_max: int) -> tuple:
    p = cfg.params
    d, k = p.d, p.k
    to_con = cfg.wiring // k
    members = cfg.inverse_wiring().reshape(p.m, k)
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


def _census_pairs(cfg: Configuration, l_max: int) -> tuple:
    # l=1: pairs of parallel edges between one variable and one constraint.
    # l=2: sum over variable pairs {v1,v2} and constraint pairs {a1,a2} of
    # the product of edge multiplicities, evaluated as (S^2 - Q)/2 with
    # S = sum_a M[v1,a]M[v2,a] and Q the sum of squares.
    counts = [count_two_cycles(cfg)]
    if l_max >= 2:
        p = cfg.params
        members = np.sort(cfg.constraint_members(), axis=1)
        ii, jj = np.triu_indices(p.k, k=1)
        v1 = members[:, ii].ravel().astype(np.int64)
        v2 = members[:, jj].ravel().astype(np.int64)
        cons = np.repeat(np.arange(p.m, dtype=np.int64), ii.size)
        distinct = v1 != v2
        pair_key = v1[distinct] * p.n + v2[distinct]
        key_con = pair_key * p.m + cons[distinct]
        uniq, mult = np.unique(key_con, return_counts=True)
        per_pair = uniq // p.m
        pairs, inverse = np.unique(per_pair, return_inverse=True)
        s = np.bincount(inverse, weights=mult.astype(float))
        q = np.bincount(inverse, weights=(mult * mult).astype(float))
        counts.append(int(round(((s * s - q) / 2.0).sum())))
    return tuple(counts)


def count_cycles(cfg: Configuration, l_max: int) -> CycleCensus:
    """Census of 2l-cycles for l = 1 .. l_max.

    Multiplicity counting for l_max <= 2, above that a breadth-wise
    enumeration of directed rooted walks over a numpy frontier.
    """
    if l_max < 1:
        raise ParameterError(f"need l_max >= 1, got {l_max}")
    if l_max <= 2:
        return CycleCensus(_census_pairs(cfg, l_max))
    return CycleCensus(_census_walk(cfg, l_max))


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


def _census_task(args) -> tuple:
    n, d, k, r, seed, l_max = args
    cfg = sample_configuration(Params(n=n, d=d, k=k, r=r), seed)
    return count_cycles(cfg, l_max).counts


def census_samples(
    k: int,
    d: int,
    n: int,
    samples: int,
    seed: int,
    l_max: int = 2,
    r: int = 2,
    threads: int = 1,
) -> list[CycleCensus]:
    """Censuses of ``samples`` independent configurations.

    Sample ``i`` runs on ``child_seed(seed, i)``; gathering is by sample
    index, so results do not depend on the worker count.
    """
    if samples < 1:
        raise ParameterError(f"need samples >= 1, got {samples}")
    tasks = [(n, d, k, r, child_seed(seed, i), l_max) for i in range(samples)]
    return [CycleCensus(c) for c in parallel_map(_census_task, tasks, threads)]
