"""Solution counting, overlap profiles, and the satisfiability sweep."""

import math
from fractions import Fraction

import numpy as np
import pytest

from occuthresh import occupancy, parallel
from occuthresh.errors import CapacityError, ContractViolation, ParameterError
from occuthresh.instances import Configuration, Params, child_seed, sample_configuration
from occuthresh.occupancy import (
    count_solutions,
    estimate_sat_probability,
    has_solution,
    is_solution,
    ones_quota,
    overlap,
)

from tests.oracles import count_solutions_bruteforce, solutions_bruteforce


def identity_config() -> Configuration:
    return Configuration(Params(n=4, d=2, k=4, r=2), np.arange(8))


SMALL_FAMILIES = [
    (8, 2, 4, 2),
    (8, 3, 4, 2),
    (12, 2, 4, 2),
    (6, 2, 3, 1),
    (9, 2, 3, 2),
    (10, 3, 5, 2),
    (12, 2, 6, 3),
]

# r = 1 and r = 3 families up to n = 16, beside the r = 2 bulk above.
OTHER_R_FAMILIES = [
    (8, 3, 4, 1),
    (12, 3, 4, 3),
    (16, 2, 4, 1),
    (16, 2, 4, 3),
]

# d = k: every variable meets k constraints, so sampled wirings often
# put two or more of a variable's v-edges into one constraint.
D_EQUALS_K_FAMILIES = [
    (6, 3, 3, 1),
    (6, 3, 3, 2),
    (8, 4, 4, 2),
    (10, 5, 5, 2),
]


def max_multiplicity(cfg: Configuration) -> int:
    """Largest number of f-edges one variable holds in one constraint."""
    return max(np.bincount(row).max() for row in cfg.constraint_members())


def assert_matches_oracle(cfg: Configuration):
    z = count_solutions_bruteforce(cfg)
    assert count_solutions(cfg) == z
    assert has_solution(cfg) == (z > 0)


class TestOnesQuota:
    def test_forced_count(self):
        assert ones_quota(Params(n=4, d=2, k=4, r=2)) == 2

    def test_fractional_is_absent(self):
        assert ones_quota(Params(n=3, d=4, k=4, r=2)) is None

    def test_one_in_three(self):
        assert ones_quota(Params(n=9, d=2, k=3, r=1)) == 3


class TestIsSolution:
    def test_all_zeros_fails(self):
        cfg = identity_config()
        assert not is_solution(cfg, np.zeros(4, dtype=int))

    def test_identity_alternating(self):
        cfg = identity_config()
        assert is_solution(cfg, np.array([1, 0, 1, 0]))

    def test_identity_front_loaded(self):
        cfg = identity_config()
        assert not is_solution(cfg, np.array([1, 1, 0, 0]))

    def test_length_mismatch(self):
        with pytest.raises(ContractViolation):
            is_solution(identity_config(), np.array([1, 0, 1]))

    def test_multiplicity_counted(self):
        # Identity wiring: constraint 0 sees variables 0 and 1 twice each,
        # so a single one-valued variable contributes two one-edges.
        cfg = Configuration(Params(n=4, d=2, k=4, r=2), np.arange(8))
        assert is_solution(cfg, np.array([1, 0, 0, 1]))


class TestCountSolutions:
    def test_identity_by_exhaustive_assignments(self):
        cfg = identity_config()
        assert count_solutions_bruteforce(cfg) == 4
        assert count_solutions(cfg) == 4

    def test_quota_absent_gives_zero(self):
        cfg = sample_configuration(Params(n=3, d=4, k=4, r=2), seed=2)
        assert count_solutions(cfg) == 0

    def test_matches_unrestricted_enumeration(self):
        """Exact count equals the 2^n sweep on small random instances."""
        for i, (n, d, k, r) in enumerate(SMALL_FAMILIES + OTHER_R_FAMILIES):
            for t in range(4):
                cfg = sample_configuration(Params(n=n, d=d, k=k, r=r), child_seed(31 + i, t))
                assert_matches_oracle(cfg)

    def test_identity_wiring_matches_oracle(self):
        """Identity wirings pack each variable's v-edges into as few constraints as possible."""
        for n, d, k, r in SMALL_FAMILIES + OTHER_R_FAMILIES[:2] + D_EQUALS_K_FAMILIES:
            cfg = Configuration(Params(n=n, d=d, k=k, r=r), np.arange(n * d))
            assert max_multiplicity(cfg) >= 2
            assert_matches_oracle(cfg)

    def test_repeated_memberships_match_oracle(self):
        repeated = 0
        for i, (n, d, k, r) in enumerate(D_EQUALS_K_FAMILIES):
            for t in range(12):
                cfg = sample_configuration(Params(n=n, d=d, k=k, r=r), child_seed(73 + i, t))
                repeated += max_multiplicity(cfg) >= 2
                assert_matches_oracle(cfg)
        assert repeated >= 12

    def test_ensemble_mean(self, exhaustive):
        assert exhaustive["mean_z"] == Fraction(108, 35)

    def test_capacity_error(self):
        cfg = sample_configuration(Params(n=40, d=2, k=4, r=2), seed=1)
        with pytest.raises(CapacityError):
            count_solutions(cfg)

    def test_relabeling_invariance(self):
        """Z is invariant under constraint relabeling and half-edge swaps."""
        p = Params(n=8, d=2, k=4, r=2)
        rng = np.random.default_rng(7)
        for t in range(5):
            cfg = sample_configuration(p, child_seed(91, t))
            z = count_solutions(cfg)

            con_perm = rng.permutation(p.m)
            relabeled = np.empty_like(cfg.wiring)
            for s, f in enumerate(cfg.wiring):
                a, h = divmod(int(f), p.k)
                relabeled[s] = con_perm[a] * p.k + h
            assert count_solutions(Configuration(p, relabeled)) == z

            var = int(rng.integers(p.n))
            swapped = cfg.wiring.copy()
            swapped[[var * p.d, var * p.d + 1]] = swapped[[var * p.d + 1, var * p.d]]
            assert count_solutions(Configuration(p, swapped)) == z


class TestEarlyExit:
    def test_agrees_with_count_on_small_instances(self):
        hits = 0
        for t in range(1000):
            cfg = sample_configuration(Params(n=8, d=3, k=4, r=2), child_seed(17, t))
            positive = count_solutions(cfg) > 0
            assert has_solution(cfg) == positive
            hits += positive
        assert 0 < hits < 1000  # both outcomes exercised

    def test_agrees_with_count_at_n24(self):
        hits = 0
        for t in range(60):
            cfg = sample_configuration(Params(n=24, d=3, k=4, r=2), child_seed(29, t))
            positive = count_solutions(cfg) > 0
            assert has_solution(cfg) == positive
            hits += positive
        assert 0 < hits < 60


class TestOverlap:
    def test_identical_solutions_saturate(self):
        cfg = identity_config()
        x = np.array([1, 0, 1, 0])
        prof = overlap(cfg, x, x)
        assert prof.r1 == 2 == ones_quota(cfg.params)
        assert prof.r2 == cfg.params.m
        assert prof.w1 == 1.0 and prof.w2 == 1.0

    def test_disjoint_solutions(self):
        cfg = identity_config()
        prof = overlap(cfg, np.array([1, 0, 1, 0]), np.array([0, 1, 0, 1]))
        assert (prof.r1, prof.r2) == (0, 0)

    def test_non_solution_rejected(self):
        cfg = identity_config()
        with pytest.raises(ContractViolation):
            overlap(cfg, np.array([1, 1, 0, 0]), np.array([1, 0, 1, 0]))

    def test_profile_region_constraints(self):
        """All solution pairs satisfy the integer overlap-region bounds."""
        checked = 0
        for t in range(60):
            cfg = sample_configuration(Params(n=8, d=2, k=4, r=2), child_seed(55, t))
            sols = solutions_bruteforce(cfg)
            n1 = ones_quota(cfg.params)
            m, d = cfg.params.m, cfg.params.d
            for i in range(min(len(sols), 4)):
                for j in range(min(len(sols), 4)):
                    prof = overlap(cfg, sols[i], sols[j])
                    assert 0 <= prof.r1 <= n1
                    assert max(0, d * prof.r1 - m) <= prof.r2 <= (d * prof.r1) // 2
                    checked += 1
        assert checked > 50


class TestSatProbability:
    def test_zero_trials_rejected(self):
        with pytest.raises(ParameterError):
            estimate_sat_probability(k=4, d=2, n_list=[8], trials=0, seed=1)

    def test_capacity_checked_up_front(self):
        with pytest.raises(CapacityError):
            estimate_sat_probability(k=4, d=2, n_list=[8, 80], trials=5, seed=1)

    def test_row_shape_and_seed(self):
        rows = estimate_sat_probability(k=4, d=2, n_list=[8, 12], trials=10, seed=9)
        assert [r.n for r in rows] == [8, 12]
        for row in rows:
            assert row.trials == 10
            assert row.seed == 9
            assert 0.0 <= row.ci_low <= row.sat_fraction <= row.ci_high <= 1.0
            assert row.sat_count == round(row.sat_fraction * row.trials)

    def test_thread_count_invariance(self):
        serial = estimate_sat_probability(k=4, d=3, n_list=[8, 12], trials=40, seed=13, threads=1)
        pooled = estimate_sat_probability(k=4, d=3, n_list=[8, 12], trials=40, seed=13, threads=3)
        assert serial == pooled

    def test_one_map_for_every_n(self, monkeypatch):
        """All (n, trial) tasks go through one parallel_map call, so one worker pool."""
        calls = []

        def counting(fn, items, threads):
            calls.append(len(items))
            return parallel.parallel_map(fn, items, threads)

        monkeypatch.setattr(occupancy, "parallel_map", counting)
        rows = {
            threads: estimate_sat_probability(k=4, d=3, n_list=[8, 12, 16], trials=6, seed=5,
                                              threads=threads)
            for threads in (1, 2)
        }
        assert calls == [18, 18]
        assert rows[1] == rows[2]

    def test_deterministic_under_seed(self):
        a = estimate_sat_probability(k=4, d=3, n_list=[8], trials=25, seed=21)
        b = estimate_sat_probability(k=4, d=3, n_list=[8], trials=25, seed=21)
        assert a == b
