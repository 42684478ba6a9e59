"""Cycle censuses and the Poisson-limit constants."""

import math
import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest

from occuthresh import cycles, instances
from occuthresh.errors import CapacityError, ContractViolation, ParameterError
from occuthresh.instances import (
    Configuration,
    Params,
    child_seed,
    count_two_cycles,
    sample_configuration,
)
from occuthresh.cycles import (
    census_samples,
    count_cycles,
    delta_l,
    lambda_l,
    markov_trace_delta,
    mu_l,
    pair_correlation,
    poisson_gof,
)
from tests.oracles import census_walk_reference


def stub_pool(monkeypatch, cpus: int) -> list:
    """Report ``cpus`` CPUs and swap in a pool that starts no process.

    Returns the list of worker counts the pools were asked for; their
    ``map`` runs in this process.
    """
    started = []

    class StubPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            return [fn(item) for item in items]

    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(multiprocessing, "Pool", StubPool)
    return started


def identity_config() -> Configuration:
    return Configuration(Params(n=4, d=2, k=4, r=2), np.arange(8))


def ring_config() -> Configuration:
    """Eight variables and eight binary constraints wired into a single ring."""
    p = Params(n=8, d=2, k=2, r=1)
    wiring = np.empty(16, dtype=np.int64)
    for i in range(8):
        wiring[2 * i] = 2 * i  # variable i -> constraint i, slot 0
        wiring[2 * i + 1] = 2 * ((i - 1) % 8) + 1  # variable i -> constraint i-1, slot 1
    return Configuration(p, wiring)


class TestCensus:
    def test_identity_two_cycles(self):
        census = count_cycles(identity_config(), 2)
        assert census.count(1) == 4 == count_two_cycles(identity_config())
        assert census.count(2) == 0

    def test_single_long_ring(self):
        census = count_cycles(ring_config(), 8)
        assert census.counts == (0, 0, 0, 0, 0, 0, 0, 1)

    def test_methods_agree(self):
        for i, (n, d, k) in enumerate([(8, 2, 4), (12, 3, 4), (20, 3, 5), (30, 2, 3)]):
            for t in range(4):
                cfg = sample_configuration(Params(n=n, d=d, k=k, r=1), child_seed(120 + i, t))
                assert cycles._census_walk(cfg.params, cfg.wiring, 2) == count_cycles(cfg, 2).counts

    @pytest.mark.parametrize(
        "n,d,k,seeds",
        [(400, 3, 4, 2), (12, 2, 4, 4), (30, 3, 6, 2), (20, 4, 4, 4), (40, 5, 4, 2),
         (60, 3, 3, 4), (8, 2, 2, 4)],
    )
    def test_walk_matches_recursive_reference(self, n, d, k, seeds):
        # The small families are full of parallel edges and repeated constraints.
        # The reference's count at l does not depend on its l_max.
        for t in range(seeds):
            cfg = sample_configuration(Params(n=n, d=d, k=k, r=1), child_seed(n * d + k, t))
            want = census_walk_reference(cfg, 5)
            for l_max in range(1, 6):
                assert cycles._census_walk(cfg.params, cfg.wiring, l_max) == want[:l_max], (t, l_max)

    def test_walk_batches_match_one_batch(self, monkeypatch):
        # Caps of a few rows cut the roots into batches of one and the
        # candidate pairs into chunks of about one half-walk's range.
        cfgs = [
            sample_configuration(Params(n=n, d=d, k=k, r=1), child_seed(n * d + k, t))
            for n, d, k in [(60, 3, 3), (20, 4, 4), (12, 2, 4)]
            for t in range(2)
        ]
        want = [cycles._census_walk(cfg.params, cfg.wiring, 6) for cfg in cfgs]
        for cap in (1, 7, 300):
            monkeypatch.setattr(cycles, "_HALF_WALK_ROWS", cap)
            got = [cycles._census_walk(cfg.params, cfg.wiring, 6) for cfg in cfgs]
            assert got == want, cap

    def test_walk_memory_is_bounded(self):
        # l_max = 7 is the most _WALK_STEPS admits for one sample here; the
        # half-walk join with all 400 roots in one batch allocates about 26 MiB.
        cfg = sample_configuration(Params(n=400, d=3, k=4, r=2), child_seed(61, 0))
        tracemalloc.start()
        try:
            count_cycles(cfg, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_census_memory_is_bounded(self):
        # One block of all 2000 samples allocates about 150 MB here.
        census_samples(k=4, d=3, n=400, samples=10, seed=62, l_max=2)
        tracemalloc.start()
        try:
            census_samples(k=4, d=3, n=400, samples=2000, seed=62, l_max=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_l_max_validated(self):
        with pytest.raises(ParameterError):
            count_cycles(identity_config(), 0)

    def test_walk_bound_refused_before_walking(self, monkeypatch):
        # n*d*((k-1)(d-1))^(l_max-1) at n = 400, d = 3, k = 4: 5.6e7 at l_max = 7, 3.4e8 at 8
        p = Params(n=400, d=3, k=4, r=2)
        assert p.n_slots * 6 ** 6 <= cycles._WALK_STEPS < p.n_slots * 6 ** 7
        cfg = sample_configuration(p, child_seed(63, 0))

        def unexpected(*args, **kwargs):
            raise AssertionError("the walk ran")

        monkeypatch.setattr(cycles, "_census_walk", unexpected)
        for call in (lambda: count_cycles(cfg, 8),
                     lambda: census_samples(k=4, d=3, n=400, samples=2, seed=63, l_max=8)):
            with pytest.raises(CapacityError, match="l_max=8"):
                call()

    def test_walk_bound_counts_every_sample(self):
        # one l_max = 7 walk at n = 400, d = 3, k = 4 takes up to 5.6e7 steps: three fit, four do not
        p = Params(n=400, d=3, k=4, r=1)
        cycles._check_walk_bound(p, 7, 3)
        with pytest.raises(CapacityError, match="may take 223948800 steps in 4 sample"):
            cycles._check_walk_bound(p, 7, 4)
        cycles._check_walk_bound(p, 2, 10**9)  # the wedge count takes no walk

    def test_census_invariant_under_relabeling(self):
        # l_max = 2 checks the wedge count, 3 and 4 the walk.
        p = Params(n=12, d=3, k=4, r=2)
        rng = np.random.default_rng(5)
        for l_max in (2, 3, 4):
            for t in range(4):
                cfg = sample_configuration(p, child_seed(33, t))
                base = count_cycles(cfg, l_max).counts

                con_perm = rng.permutation(p.m)
                relabeled = np.empty_like(cfg.wiring)
                for s, f in enumerate(cfg.wiring):
                    a, h = divmod(int(f), p.k)
                    relabeled[s] = con_perm[a] * p.k + h
                assert count_cycles(Configuration(p, relabeled), l_max).counts == base

                # a variable permutation moves the walk's smallest-variable roots
                var_perm = rng.permutation(p.n)
                renamed = np.empty_like(cfg.wiring)
                for s, f in enumerate(cfg.wiring):
                    v, e = divmod(s, p.d)
                    renamed[var_perm[v] * p.d + e] = f
                assert count_cycles(Configuration(p, renamed), l_max).counts == base

                var = int(rng.integers(p.n))
                swapped = cfg.wiring.copy()
                swapped[[var * p.d, var * p.d + 1]] = swapped[[var * p.d + 1, var * p.d]]
                assert count_cycles(Configuration(p, swapped), l_max).counts == base

    def test_mean_x2_matches_lambda(self, census_10k):
        x2 = np.array([c.count(2) for c in census_10k], dtype=float)
        lam = lambda_l(2, 4, 3)
        assert lam == 9.0
        assert abs(x2.mean() - lam) <= 3 * math.sqrt(lam / x2.size)


class TestConstants:
    def test_lambda_examples(self):
        assert lambda_l(1, 4, 3) == 3.0
        assert lambda_l(2, 4, 3) == 9.0
        assert lambda_l(1, 4, 2) == 1.5

    def test_delta_examples(self):
        assert delta_l(1, 4) == -1.0 / 3.0
        assert delta_l(2, 4) == 1.0 / 9.0

    def test_delta_above_minus_one(self):
        for k in range(4, 13):
            for l in range(1, 12):
                assert delta_l(l, k) > -1.0

    def test_mu_examples(self):
        assert mu_l(1, 4, 3) == pytest.approx(2.0, rel=1e-14)
        assert mu_l(1, 4, 2) == pytest.approx(1.0, rel=1e-14)
        assert mu_l(2, 4, 3) == pytest.approx(10.0, rel=1e-14)

    def test_markov_trace_matches_closed_form(self):
        assert markov_trace_delta(1, 4) == pytest.approx(-1.0 / 3.0, abs=1e-14)
        assert markov_trace_delta(3, 4) == pytest.approx(-1.0 / 27.0, abs=1e-14)
        for k in range(4, 13):
            for l in range(1, 11):
                assert markov_trace_delta(l, k) == pytest.approx(delta_l(l, k), abs=1e-12)

    def test_second_power_identity(self):
        for k in range(4, 13):
            assert abs(markov_trace_delta(2, k) - delta_l(2, k)) < 1e-14


class TestPoissonGof:
    def test_needs_two_samples(self):
        with pytest.raises(ContractViolation):
            poisson_gof([count_cycles(identity_config(), 1)], 4, 2)

    def test_fixture_statistics(self, census_10k):
        rows = poisson_gof(census_10k, 4, 3)
        by_l = {row.l: row for row in rows}
        n = len(census_10k)

        assert abs(by_l[1].empirical_mean - 3.0) <= 3 * math.sqrt(3.0 / n)
        assert abs(by_l[2].empirical_mean - 9.0) <= 3 * math.sqrt(9.0 / n)
        assert abs(by_l[1].empirical_var - 3.0) <= 0.1 * 3.0
        assert abs(by_l[1].z_score) <= 3.0
        for row in rows:
            assert row.chi2 >= 0.0
            assert row.dof >= 1

    def test_asymptotic_independence(self, census_10k):
        assert abs(pair_correlation(census_10k, 1, 2)) <= 0.05


class TestCensusSampling:
    def test_deterministic_and_thread_invariant(self):
        a = census_samples(k=4, d=3, n=60, samples=50, seed=3, l_max=2, threads=1)
        b = census_samples(k=4, d=3, n=60, samples=50, seed=3, l_max=2, threads=3)
        assert [c.counts for c in a] == [c.counts for c in b]

    @pytest.mark.parametrize("n,d,k", [(400, 3, 4), (12, 2, 4), (8, 2, 2), (20, 4, 4)])
    @pytest.mark.parametrize("l_max", [1, 2, 4])
    def test_blocks_match_one_sample_at_a_time(self, monkeypatch, n, d, k, l_max):
        # The small families are full of parallel edges and repeated constraints.
        p = Params(n=n, d=d, k=k, r=1)
        if n == 400 and l_max <= 2:
            samples = instances._block_rows(p) + 6
        else:  # blocks of 3 or 5 rows, so a few samples fill several
            rows, samples = (3, 7) if n == 400 else (5, 23)
            monkeypatch.setattr(instances, "_BLOCK_ENTRIES", rows * p.n_slots * k)
        assert samples % instances._block_rows(p) != 0  # a partial last block
        got = census_samples(k=k, d=d, n=n, samples=samples, seed=n + l_max, l_max=l_max)
        assert len(got) == samples
        for i, census in enumerate(got):
            cfg = sample_configuration(p, child_seed(n + l_max, i))
            if n <= 20:
                want = census_walk_reference(cfg, l_max)
            else:
                want = cycles._census_walk(cfg.params, cfg.wiring, l_max)
            assert census.counts == want, i

    def test_no_more_workers_than_blocks(self, monkeypatch):
        """Two blocks at eight threads on eight CPUs start two workers."""
        want = census_samples(k=4, d=3, n=400, samples=2, seed=1, threads=1)
        started = stub_pool(monkeypatch, cpus=8)
        got = census_samples(k=4, d=3, n=400, samples=2, seed=1, threads=8)
        assert started == [2]
        assert [c.counts for c in got] == [c.counts for c in want]

    def test_no_more_workers_than_cpus(self, monkeypatch):
        """Sixteen samples at 100000 threads on three CPUs start three workers."""
        want = census_samples(k=4, d=3, n=400, samples=16, seed=1, threads=1)
        started = stub_pool(monkeypatch, cpus=3)
        got = census_samples(k=4, d=3, n=400, samples=16, seed=1, threads=100000)
        assert started == [3]
        assert [c.counts for c in got] == [c.counts for c in want]

    def test_sample_count_validated(self):
        with pytest.raises(ParameterError):
            census_samples(k=4, d=3, n=60, samples=0, seed=3)
