"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The Monte Carlo
criteria reuse the session census fixture and module-scoped CLI runs so
the whole suite stays within a few minutes on two cores.
"""

import functools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from occuthresh import cli
from occuthresh.cycles import delta_l, markov_trace_delta, pair_correlation
from occuthresh.instances import Params, expected_redundant_exact
from occuthresh.moments import (
    OverlapPoint,
    first_moment_asymptotic,
    first_moment_exact,
    hessian_phi2,
    joint_moment_exact,
    phi2,
    second_moment_asymptotic,
    second_moment_exact_ratio,
    threshold_dstar,
    variance_explained,
    w_star,
)
from occuthresh.numerics import Channel, Pmf
from occuthresh.sdpi import certify_k4_contraction, contraction_coefficient, occupation_contraction

from tests.conftest import CENSUS_SAMPLES, CENSUS_SEED


def criterion(number, summary):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {number}: {summary}")
                raise
            print(f"PASS criterion {number}: {summary}")

        return run

    return wrap


def data_section(path) -> list[str]:
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


@pytest.fixture(scope="module")
def satprob_runs(tmp_path_factory):
    """CLI satprob sweeps for criterion 9, at two worker counts for criterion 10."""
    root = tmp_path_factory.mktemp("satprob")
    paths = {}
    for d in (2, 3):
        for threads in (2, 1):
            out = root / f"d{d}_t{threads}.csv"
            code = cli.main(
                ["satprob", "--k", "4", "--d", str(d), "--n", "8,16,24",
                 "--trials", "200", "--seed", "7", "--threads", str(threads),
                 "--out", str(out)]
            )
            assert code == 0
            paths[d, threads] = out
    return paths


@criterion(1, "threshold degree at k=4 within 5e-6, under a millisecond")
def test_criterion_01_threshold(capsys):
    report = threshold_dstar(4)
    assert abs(report.d_star - 2.826778) <= 5e-6
    # formula evaluation time, best of repeats (process startup excluded)
    best = math.inf
    for _ in range(50):
        t0 = time.perf_counter()
        threshold_dstar(4)
        best = min(best, time.perf_counter() - t0)
    assert best < 1e-3
    assert cli.main(["threshold", "--k", "4"]) == 0
    assert "d_star = 2.826780210445695" in capsys.readouterr().out


@criterion(2, "exhaustive ensemble equalities at (k=4, d=2, n=4), 1e-12 relative")
def test_criterion_02_exhaustive_oracles(exhaustive):
    params = exhaustive["params"]

    assert exhaustive["mean_z"] == Fraction(108, 35)
    assert math.isclose(first_moment_exact(params).linear(), 108 / 35, rel_tol=1e-12)

    ratio = exhaustive["mean_z2"] / exhaustive["mean_z"] ** 2
    assert ratio == Fraction(35, 27)
    assert math.isclose(second_moment_exact_ratio(params).linear(), 35 / 27, rel_tol=1e-12)

    assert exhaustive["mean_zx1"] == Fraction(144, 35)
    assert math.isclose(joint_moment_exact(params, 1).linear(), 144 / 35, rel_tol=1e-12)

    assert exhaustive["mean_redundant"] == Fraction(8, 35)
    assert math.isclose(expected_redundant_exact(params).linear(), 8 / 35, rel_tol=1e-12)


@criterion(3, "finite-n moments approach their asymptotic forms")
def test_criterion_03_asymptotic_consistency():
    t0 = time.perf_counter()
    gaps = [
        abs(
            first_moment_exact(Params(n=n, d=2, k=4, r=2)).value
            - first_moment_asymptotic(4, 2, n).value
        )
        for n in (20, 40, 80)
    ]
    assert gaps[1] <= 0.1
    assert gaps[0] > gaps[1] > gaps[2]

    target = math.sqrt(1.5)
    errors = [
        abs(second_moment_exact_ratio(Params(n=n, d=2, k=4, r=2)).linear() - target)
        for n in (500, 1000, 2000)
    ]
    assert errors[2] <= 0.1 * target
    assert errors[0] > errors[1] > errors[2]
    assert time.perf_counter() - t0 < 60.0


@criterion(4, "cycle counts match their Poisson limits over 1e4 samples")
def test_criterion_04_cycle_statistics(census_10k):
    x1 = np.array([c.count(1) for c in census_10k], dtype=float)
    x2 = np.array([c.count(2) for c in census_10k], dtype=float)
    n = len(census_10k)
    assert n == 10_000
    assert abs(x1.mean() - 3.0) <= 3.0 * math.sqrt(3.0 / n)
    assert abs(x2.mean() - 9.0) <= 3.0 * math.sqrt(9.0 / n)
    assert abs(x1.var(ddof=1) - 3.0) <= 0.1 * 3.0
    assert abs(pair_correlation(census_10k, 1, 2)) <= 0.05


@criterion(5, "small-subgraph constants and the variance-explained series")
def test_criterion_05_small_subgraph_constants():
    for k in range(4, 13):
        for l in range(1, 11):
            assert abs(markov_trace_delta(l, k) - delta_l(l, k)) <= 1e-12

    res = variance_explained(4, 2, 60)
    closed = math.log(math.sqrt(3.0 / 2.0))
    assert abs(res.partial_sum - closed) <= 1e-12
    assert math.isclose(math.exp(res.closed_form), second_moment_asymptotic(4, 2), rel_tol=1e-12)


@criterion(6, "closed-form Hessian against determinant formula and finite differences")
def test_criterion_06_hessian():
    h = hessian_phi2(4, 2)
    assert (h.h11, h.h12, h.h22) == (11.0, -9.0, 9.0)
    det_formula = 2 * 4 * 9 * (4 - 2) / (2 * 4 * 1)
    assert abs(h.det - det_formula) <= 1e-12 * det_formula

    step = 1e-3
    w1s, w2s = w_star(4)
    f = lambda a, b: phi2(OverlapPoint(a, b), 4, 2)  # noqa: E731
    fd11 = (f(w1s + step, w2s) - 2 * f(w1s, w2s) + f(w1s - step, w2s)) / step**2
    fd22 = (f(w1s, w2s + step) - 2 * f(w1s, w2s) + f(w1s, w2s - step)) / step**2
    fd12 = (
        f(w1s + step, w2s + step)
        - f(w1s + step, w2s - step)
        - f(w1s - step, w2s + step)
        + f(w1s - step, w2s - step)
    ) / (4 * step**2)
    assert abs(fd11 - h.h11) / abs(h.h11) <= 1e-4
    assert abs(fd12 - h.h12) / abs(h.h12) <= 1e-4
    assert abs(fd22 - h.h22) / abs(h.h22) <= 1e-4


@criterion(7, "k=4 contraction supremum at the corner plus full certificate")
def test_criterion_07_contraction_k4():
    t0 = time.perf_counter()
    res = occupation_contraction(4)
    assert abs(res.sup - math.log(2) / math.log(6)) <= 1e-4
    assert abs(res.argmax.w1 - 1.0) <= 1e-3
    assert abs(res.argmax.w2 - 1.0) <= 1e-3

    cert = certify_k4_contraction()  # raises CertificateError if any check fails
    assert 0.108 < cert.w_bar < 0.1087
    assert abs(cert.ratio_at_w_bar - 0.380) <= 1e-3
    assert time.perf_counter() - t0 < 60.0


@criterion(8, "generic contraction sanity: identity, constant, random channels")
def test_criterion_08_generic_sdpi():
    value, _ = contraction_coefficient(Pmf(np.ones(3) / 3), Channel(np.eye(3)), grid_depth=60)
    assert abs(value - 1.0) <= 1e-9

    col = np.array([[0.2], [0.5], [0.3]])
    value, _ = contraction_coefficient(
        Pmf(np.ones(3) / 3), Channel(np.tile(col, (1, 3))), grid_depth=60
    )
    assert abs(value) <= 1e-12

    rng = np.random.default_rng(2718)
    for _ in range(100):
        n_in = int(rng.integers(2, 4))
        n_out = int(rng.integers(2, 4))
        matrix = rng.dirichlet(np.ones(n_out), size=n_in).T
        p_star = rng.dirichlet(np.ones(n_in) * 5.0)
        value, _ = contraction_coefficient(Pmf(p_star), Channel(matrix), grid_depth=40)
        assert 0.0 <= value <= 1.0 + 1e-9


@criterion(9, "satisfiability fractions: high below threshold, falling above")
def test_criterion_09_phase_transition_trend(satprob_runs):
    rows_d2 = [line.split(",") for line in data_section(satprob_runs[2, 2])[1:]]
    fractions_d2 = [float(r[3]) for r in rows_d2]
    assert all(f >= 0.9 for f in fractions_d2)

    rows_d3 = [line.split(",") for line in data_section(satprob_runs[3, 2])[1:]]
    fractions_d3 = [float(r[3]) for r in rows_d3]
    assert fractions_d3[0] > fractions_d3[1] > fractions_d3[2]


@criterion(10, "stochastic runs rerun byte-identically at any worker count")
def test_criterion_10_determinism(satprob_runs, census_10k, tmp_path):
    from occuthresh.cycles import census_samples

    for d in (2, 3):
        assert data_section(satprob_runs[d, 2]) == data_section(satprob_runs[d, 1])

    rerun = census_samples(
        k=4, d=3, n=400, samples=CENSUS_SAMPLES, seed=CENSUS_SEED, l_max=2, threads=1
    )
    assert [c.counts for c in rerun] == [c.counts for c in census_10k]

    paths = []
    for threads in ("1", "2"):
        out = tmp_path / f"sample_t{threads}.cfg"
        assert cli.main(["sample", "--k", "4", "--d", "3", "--n", "40", "--seed", "6",
                         "--out", str(out)]) == 0
        paths.append(out)
    assert data_section(paths[0]) == data_section(paths[1])
