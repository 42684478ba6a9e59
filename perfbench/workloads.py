"""The benchmark's three workloads: argv per round, inputs, output checks.

A round is one pass over a workload's CLI calls.  Round ``i`` of seed
``S`` draws every instance, trial and channel seed from
``child_seed(S, i)`` (the one exception is the fixed near-p* channel,
see ``draw_channels``), so a run is a function of its seed and the
number of rounds it completes.  Checks run after the round's timed span; each
returns ``(name, ok, detail)`` and counts as one operation.  A run also
keeps state across rounds for checks that pool rounds (``finish``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as R


@dataclass
class Call:
    label: str
    argv: list[str]
    out: Path


@dataclass
class Round:
    calls: list[Call]
    check: object  # callable(outputs: dict[label, str]) -> list[(name, ok, detail)]


def data_lines(text: str) -> list[str]:
    return [line for line in text.splitlines() if line.strip() and not line.startswith("#")]


def key_values(text: str) -> dict[str, str]:
    out = {}
    for line in data_lines(text):
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def csv_rows(text: str) -> list[dict[str, str]]:
    lines = data_lines(text)
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def wiring_of(text: str) -> list[int]:
    body = key_values(text)["wiring"].strip("[]")
    return [int(tok) for tok in body.split(",")]


def _seeds(master: int, count: int) -> list[int]:
    return [R.child_seed(master, i) for i in range(count)]


# --------------------------------------------------------------------------
# solve: deciding (satprob, d = 3) and counting (sample -> count, d = 2)
# --------------------------------------------------------------------------

SOLVE_K, SOLVE_D, SOLVE_COUNT_D = 4, 3, 2
SOLVE_TRIALS = {16: 24, 20: 6, 24: 2}  # trials per round for each n
SOLVE_COUNT_N, SOLVE_COUNTS = 24, 2  # d = 2 instances sampled and counted per round
WILSON_Z = 5.0  # pooled interval: a false alarm has probability below 1e-6


def check_satprob(text: str, n: int, d: int, k: int, trials: int, seed: int):
    """The printed sat count equals independent decisions on the same instances."""
    row = csv_rows(text)[0]
    seed_n = R.child_seed(seed, 0)
    sat = sum(
        R.solution_count(R.permutation(R.child_seed(seed_n, t), d * n), n, d, k, 2) > 0
        for t in range(trials)
    )
    lo, hi = R.wilson(sat, trials, 1.959963984540054)
    ok = (
        int(row["n"]) == n
        and int(row["trials"]) == trials
        and int(row["sat_count"]) == sat
        and close(float(row["ci_low"]), lo, 1e-9)
        and close(float(row["ci_high"]), hi, 1e-9)
    )
    return ok, sat, f"n={n} printed sat={row['sat_count']} reference sat={sat}"


def check_count(sample_text: str, count_text: str, n: int, d: int, k: int, seed: int):
    """Sampled wiring equals the reference sampler; count equals enumeration; count even."""
    wiring = wiring_of(sample_text)
    same = wiring == R.permutation(seed, d * n)
    z = int(key_values(count_text)["solutions"])
    ref = R.solution_count(wiring, n, d, k, 2)
    return [
        ("solve.sample_wiring", same, f"seed={seed}"),
        ("solve.count_exact", z == ref, f"printed={z} reference={ref}"),
        ("solve.count_even", z % 2 == 0, f"printed={z}"),
    ]


def check_window(n: int, sat: int, trials: int, d: int = SOLVE_D, k: int = SOLVE_K):
    lo, hi = R.wilson(sat, trials, WILSON_Z)
    w_lo, w_hi = R.sat_window(n, d, k)
    ok = hi >= w_lo and lo <= w_hi
    return ("solve.wilson_window", ok,
            f"n={n} sat={sat}/{trials} interval=[{lo:.3f},{hi:.3f}] window=[{w_lo:.3f},{w_hi:.3f}]")


class Solve:
    name = "solve"

    def __init__(self):
        self.pooled = {n: [0, 0] for n in SOLVE_TRIALS}

    def make_round(self, base: int, work: Path) -> Round:
        seeds = _seeds(base, len(SOLVE_TRIALS) + SOLVE_COUNTS)
        calls, plan = [], []
        for (n, trials), seed in zip(SOLVE_TRIALS.items(), seeds):
            out = work / f"satprob_{n}.csv"
            calls.append(Call(f"satprob_{n}", [
                "satprob", "--k", str(SOLVE_K), "--d", str(SOLVE_D), "--n", str(n),
                "--trials", str(trials), "--seed", str(seed), "--threads", "1", "--out", str(out),
            ], out))
            plan.append(("satprob", n, trials, seed))
        for j, seed in enumerate(seeds[len(SOLVE_TRIALS):]):
            inst, cnt = work / f"instance_{j}.cfg", work / f"count_{j}.txt"
            calls.append(Call(f"sample_{j}", [
                "sample", "--k", str(SOLVE_K), "--d", str(SOLVE_COUNT_D), "--n", str(SOLVE_COUNT_N),
                "--seed", str(seed), "--out", str(inst),
            ], inst))
            calls.append(Call(f"count_{j}", ["count", "--in", str(inst), "--out", str(cnt)], cnt))
            plan.append(("count", j, seed))

        def check(outputs):
            results = []
            for item in plan:
                if item[0] == "satprob":
                    _, n, trials, seed = item
                    ok, sat, detail = check_satprob(
                        outputs[f"satprob_{n}"], n, SOLVE_D, SOLVE_K, trials, seed)
                    self.pooled[n][0] += sat
                    self.pooled[n][1] += trials
                    results.append(("solve.decisions", ok, detail))
                else:
                    _, j, seed = item
                    results += check_count(outputs[f"sample_{j}"], outputs[f"count_{j}"],
                                           SOLVE_COUNT_N, SOLVE_COUNT_D, SOLVE_K, seed)
            return results

        return Round(calls, check)

    def finish(self):
        return [check_window(n, sat, trials) for n, (sat, trials) in self.pooled.items()]


# --------------------------------------------------------------------------
# census: sampling and short-cycle counting at n = 400
# --------------------------------------------------------------------------

CENSUS_K, CENSUS_D, CENSUS_N = 4, 3, 400
CENSUS_SAMPLES = 2000  # pair-count census, l <= 2
CENSUS_WALK_SAMPLES = 4  # walk census, l <= 4, repeated with pair counting
CENSUS_SIMPLE = 8  # sample --simple calls
Z_BOUND = 6.0  # |z| of each l against lambda_l; finite-n bias at n = 400 is under 1


def gof_rows(text: str) -> list[dict[str, float]]:
    return [{key: float(value) for key, value in row.items()} for row in csv_rows(text)]


def two_cycle_counts(seeds: list[int], n: int, d: int, k: int, chunk: int = 250) -> np.ndarray:
    """Two-cycles of each reference configuration: equal (variable, constraint) slot pairs."""
    m = d * n // k
    var = np.arange(d * n, dtype=np.int64) // d
    out = []
    for start in range(0, len(seeds), chunk):
        keys = np.sort(var[None, :] * m + R.permutations(seeds[start:start + chunk], d * n) // k, axis=1)
        # a variable meets a constraint at most d times, so equal keys lie within d-1 places
        out.append(sum((keys[:, g:] == keys[:, :-g]).sum(axis=1) for g in range(1, d)))
    return np.concatenate(out)


def check_gof_stats(rows, counts_by_l: dict[int, np.ndarray], label: str):
    """Printed mean and variance of each l equal those of the reference counts."""
    results = []
    for l, counts in counts_by_l.items():
        row = rows[l - 1]
        mean, var = float(counts.mean()), float(counts.var(ddof=1))
        ok = int(row["l"]) == l and close(row["empirical_mean"], mean, 1e-12) and close(
            row["empirical_var"], var, 1e-9)
        results.append((f"census.{label}_l{l}", ok,
                        f"printed mean={row['empirical_mean']!r} var={row['empirical_var']!r} "
                        f"reference mean={mean!r} var={var!r}"))
    return results


def check_z(rows, samples: int, k: int, d: int):
    results = []
    for row in rows:
        l = int(row["l"])
        lam = R.lambda_l(l, k, d)
        z = (row["empirical_mean"] - lam) / math.sqrt(lam / samples)
        ok = close(row["lambda"], lam, 1e-12) and close(row["z_score"], z, 1e-9) and abs(z) <= Z_BOUND
        results.append(("census.z_bound", ok, f"l={l} z={row['z_score']!r} bound={Z_BOUND}"))
    return results


def check_simple(text: str, seed: int, n: int, d: int, k: int):
    """The accepted wiring is the first two-cycle-free reference attempt, and has none."""
    wiring = wiring_of(text)
    free = R.two_cycles(wiring, n, d, k) == 0
    attempt, block = 0, 32
    expected = None
    while expected is None:
        seeds = [R.child_seed(seed, attempt + i) for i in range(block)]
        counts = two_cycle_counts(seeds, n, d, k)
        hits = np.nonzero(counts == 0)[0]
        if hits.size:
            expected = R.permutations([seeds[hits[0]]], d * n)[0].tolist()
        attempt += block
    return [
        ("census.simple_no_two_cycle", free, f"seed={seed}"),
        ("census.simple_wiring", wiring == expected, f"seed={seed}"),
    ]


def dense_counts(seed: int, samples: int, n: int, d: int, k: int):
    per = [R.cycle_counts_dense(R.permutations([s], d * n)[0], n, d, k) for s in _seeds(seed, samples)]
    arr = np.array(per, dtype=float)
    return {1: arr[:, 0], 2: arr[:, 1]}


class Census:
    name = "census"

    def make_round(self, base: int, work: Path) -> Round:
        pair_seed, walk_seed, *simple_seeds = _seeds(base, 2 + CENSUS_SIMPLE)
        common = ["--k", str(CENSUS_K), "--d", str(CENSUS_D), "--n", str(CENSUS_N)]

        def cycles(label, l_max, samples, seed):
            out = work / f"{label}.csv"
            return Call(label, ["cycles", *common, "--samples", str(samples), "--seed", str(seed),
                                "--l-max", str(l_max), "--threads", "1", "--out", str(out)], out)

        calls = [cycles("pairs", 2, CENSUS_SAMPLES, pair_seed)]
        for j, seed in enumerate(simple_seeds):
            out = work / f"simple_{j}.cfg"
            calls.append(Call(f"simple_{j}", ["sample", *common, "--seed", str(seed), "--simple",
                                              "--out", str(out)], out))
        calls.append(cycles("walk", 4, CENSUS_WALK_SAMPLES, walk_seed))
        calls.append(cycles("walk_pairs", 2, CENSUS_WALK_SAMPLES, walk_seed))

        def check(outputs):
            nd = (CENSUS_N, CENSUS_D, CENSUS_K)
            pairs = gof_rows(outputs["pairs"])
            results = check_gof_stats(
                pairs[:1], {1: two_cycle_counts(_seeds(pair_seed, CENSUS_SAMPLES), *nd)}, "pairs")
            results += check_z(pairs, CENSUS_SAMPLES, CENSUS_K, CENSUS_D)
            for j, seed in enumerate(simple_seeds):
                results += check_simple(outputs[f"simple_{j}"], seed, *nd)
            walk, walk_pairs = gof_rows(outputs["walk"]), gof_rows(outputs["walk_pairs"])
            dense = dense_counts(walk_seed, CENSUS_WALK_SAMPLES, *nd)
            results += check_gof_stats(walk, dense, "walk_dense")
            results += check_gof_stats(walk_pairs, dense, "pairs_dense")
            results.append(("census.walk_equals_pairs", walk[:2] == walk_pairs,
                            "rows l=1,2 of the walk and pair censuses"))
            results += check_z(walk, CENSUS_WALK_SAMPLES, CENSUS_K, CENSUS_D)
            return results

        return Round(calls, check)

    def finish(self):
        return []


# --------------------------------------------------------------------------
# analytic: thresholds, exact moments, contraction coefficients
# --------------------------------------------------------------------------

THRESHOLD_KS = range(4, 13)
CONJECTURE_KS = range(4, 11)
# (k, d, n values): d below d*(k) first, then above
MOMENT_SERIES = [(4, 2, (1000, 2000, 4000)), (4, 3, (1000, 2000, 4000)),
                 (6, 3, (600, 1200, 2400)), (6, 4, (600, 1200, 2400))]
MOMENT_SMALL = [(4, 2, 24), (4, 3, 24)]  # small enough for the exact rational E[Z^2]
D_STAR_4 = 2.826778
CLIFF_SEED = 8  # near-p* channel: 3.5e4 kl_divergence_rows calls, 1.4 s
SANDWICH_TOL = 1e-6  # relative slack of eta against the chi-square and Dobrushin bounds


@dataclass
class ChannelSpec:
    label: str
    matrix: np.ndarray  # column-stochastic (n_out, n_in)
    p_star: np.ndarray
    depth: int


def channel_document(spec: ChannelSpec) -> str:
    cols = ", ".join(repr(float(v)) for v in spec.matrix.T.ravel())
    pstar = ", ".join(repr(float(v)) for v in spec.p_star)
    n_out, n_in = spec.matrix.shape
    return f"n_in = {n_in}\nn_out = {n_out}\nmatrix = [{cols}]\np_star = [{pstar}]\n"


def _draw(rng, n_in: int, n_out: int):
    matrix = rng.dirichlet(np.ones(n_out), size=n_in).T
    matrix /= matrix.sum(axis=0, keepdims=True)
    p_star = rng.dirichlet(np.full(n_in, 2.0))
    return matrix, p_star / p_star.sum()


def _screened(rng, n_in: int, n_out: int, near: bool, coarse: int):
    # ``away``: a coarse-grid ratio 5% above the chi-square coefficient, the
    # limit of the ratio at p*, so the supremum lies away from p*.  ``near``:
    # no coarse point above that limit, so refinement climbs towards p*.
    while True:
        matrix, p_star = _draw(rng, n_in, n_out)
        if p_star.min() < 0.02:
            continue
        rho2 = R.chi2_coefficient(matrix, p_star)
        top = R.coarse_ratio_max(matrix, p_star, coarse)
        if (top <= rho2) if near else (top >= 1.05 * rho2):
            return matrix, p_star


def draw_channels(seed: int) -> list[ChannelSpec]:
    """Seeded channels with maximisers away from p*, plus the fixed cliff channel.

    Refinement towards p* costs from 3e3 to 9e5 one-point evaluations
    depending on the channel drawn, a spread no run-level median absorbs,
    so the near-p* channel comes from a fixed seed and costs the same in
    every run.
    """
    rng = np.random.default_rng(seed)
    return [
        ChannelSpec("sdpi_2in", *_screened(rng, 2, 3, False, 40), 200),
        ChannelSpec("sdpi_3in", *_screened(rng, 3, 3, False, 20), 200),
        ChannelSpec("sdpi_near", *_screened(np.random.default_rng(CLIFF_SEED), 3, 2, True, 40), 100),
        ChannelSpec("sdpi_4in", *_screened(rng, 4, 3, False, 12), 200),
    ]


def check_sdpi(text: str, spec: ChannelSpec):
    kv = key_values(text)
    eta = float(kv["d_star"])
    arg = np.array([float(t) for t in kv["argmax"].strip("[]").split(",")])
    lo = R.chi2_coefficient(spec.matrix, spec.p_star)
    hi = R.dobrushin_coefficient(spec.matrix)
    ok = lo * (1 - SANDWICH_TOL) <= eta <= hi * (1 + SANDWICH_TOL)
    pmf_ok = arg.size == spec.p_star.size and arg.min() >= 0 and abs(arg.sum() - 1) < 1e-9
    return [
        ("analytic.sdpi_sandwich", ok, f"{spec.label}: chi2={lo!r} <= eta={eta!r} <= dobrushin={hi!r}"),
        ("analytic.sdpi_argmax_pmf", pmf_ok, f"{spec.label}: argmax={arg.tolist()}"),
    ]


def check_threshold(text: str, k: int):
    kv = key_values(text)
    d_star = float(kv["d_star"])
    ok = close(d_star, R.threshold_degree(k), 1e-12) and kv["bounds_ok"] == "true"
    return ("analytic.threshold", ok, f"k={k} printed={d_star!r} reference={R.threshold_degree(k)!r}")


def check_conjecture(text: str, k: int):
    kv = key_values(text)
    sup, conj = float(kv["sup"]), float(kv["conjectured"])
    ok = close(conj, R.conjectured_sup(k), 1e-12) and sup >= conj - 1e-9 and sup >= 1.0 / (k - 1)
    return ("analytic.conjecture", ok, f"k={k} sup={sup!r} conjectured={conj!r}")


def check_verify_k4(text: str, threshold_text: str):
    kv = key_values(text)
    c = float(kv["conjectured_d_star"])
    d_star = 4 * c / (4 * c - 1)  # threshold degree from the corner contraction value
    printed = float(key_values(threshold_text)["d_star"])
    ok = abs(d_star - D_STAR_4) <= 5e-6 and close(d_star, printed, 1e-12) and float(
        kv["max_ratio_found"]) <= c + 1e-6
    return ("analytic.verify_k4", ok, f"d*={d_star!r} threshold={printed!r}")


def check_moment_series(texts: list[str], k: int, d: int, ns):
    kvs = [key_values(t) for t in texts]
    ln_ratio = [float(kv["ln_ratio_exact"]) for kv in kvs]
    gaps = [float(kv["ln_EZ_exact"]) - float(kv["ln_EZ_asymptotic"]) for kv in kvs]
    ez_ok = all(close(float(kv["ln_EZ_exact"]), R.ln_first_moment(n, d, k), 1e-10)
                for kv, n in zip(kvs, ns))
    # doubling n halves a 1/n gap
    shrink = all(0.4 <= abs(b) / abs(a) <= 0.6 for a, b in zip(gaps, gaps[1:]))
    results = [("analytic.ln_ez_exact", ez_ok, f"k={k} d={d}"),
               ("analytic.ln_ez_gap_1_over_n", shrink, f"k={k} d={d} gaps={gaps}")]
    limit = 0.5 * math.log((k - 1) / (k - d))
    if d < R.threshold_degree(k):
        toward = all(a > b > limit for a, b in zip(ln_ratio, ln_ratio[1:]))
        results.append(("analytic.ratio_decreases_to_limit", toward,
                        f"k={k} d={d} ln ratios={ln_ratio} limit={limit!r}"))
    else:
        grows = all(b > 1.5 * a > 0 for a, b in zip(ln_ratio, ln_ratio[1:]))
        results.append(("analytic.ratio_grows_above_threshold", grows,
                        f"k={k} d={d} ln ratios={ln_ratio}"))
    return results


def check_moment_small(text: str, k: int, d: int, n: int):
    printed = float(key_values(text)["ln_ratio_exact"])
    ez = R.first_moment(n, d, k)
    ref = math.log(R.second_moment(n, d, k) / (ez * ez))
    return ("analytic.ln_ratio_exact", close(printed, ref, 1e-10),
            f"k={k} d={d} n={n} printed={printed!r} reference={ref!r}")


class Analytic:
    name = "analytic"

    def make_round(self, base: int, work: Path) -> Round:
        calls = []

        def call(label, argv):
            out = work / f"{label}.txt"
            calls.append(Call(label, [*argv, "--out", str(out)], out))

        for k in THRESHOLD_KS:
            call(f"threshold_{k}", ["threshold", "--k", str(k)])
        for k, d, ns in MOMENT_SERIES:
            for n in ns:
                call(f"moments_{k}_{d}_{n}", ["moments", "--k", str(k), "--d", str(d), "--n", str(n), "--exact"])
        for k, d, n in MOMENT_SMALL:
            call(f"moments_{k}_{d}_{n}", ["moments", "--k", str(k), "--d", str(d), "--n", str(n), "--exact"])
        for k in CONJECTURE_KS:
            call(f"conjecture_{k}", ["conjecture", "--k", str(k)])
        call("verify_k4", ["verify-k4"])
        specs = draw_channels(base)
        for spec in specs:
            path = work / f"{spec.label}.channel"
            path.write_text(channel_document(spec))
            call(spec.label, ["sdpi", "--channel", str(path), "--grid-depth", str(spec.depth)])

        def check(outputs):
            results = [check_threshold(outputs[f"threshold_{k}"], k) for k in THRESHOLD_KS]
            for k, d, ns in MOMENT_SERIES:
                results += check_moment_series([outputs[f"moments_{k}_{d}_{n}"] for n in ns], k, d, ns)
            for k, d, n in MOMENT_SMALL:
                results.append(check_moment_small(outputs[f"moments_{k}_{d}_{n}"], k, d, n))
            results += [check_conjecture(outputs[f"conjecture_{k}"], k) for k in CONJECTURE_KS]
            results.append(check_verify_k4(outputs["verify_k4"], outputs["threshold_4"]))
            for spec in specs:
                results += check_sdpi(outputs[spec.label], spec)
            return results

        return Round(calls, check)

    def finish(self):
        return []


WORKLOADS = {w.name: w for w in (Solve, Census, Analytic)}
