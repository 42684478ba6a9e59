"""Solution counting, overlap profiles, and the satisfiability sweep."""

import math
import tracemalloc
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

from tests.oracles import (
    count_solutions_bruteforce,
    count_solutions_search_reference,
    solutions_bruteforce,
)


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


# Families for the frontier DP against the counting search it replaced,
# at n = 16 and 24: r = 1..k-1, d = k (repeated memberships), and
# k = 4, d = 8, whose frontier needs more than 63 bits of state at n = 24.
SEARCH_FAMILIES = [
    (16, 2, 4, 2),
    (24, 2, 4, 2),
    (24, 3, 4, 2),
    (16, 3, 4, 1),
    (24, 3, 4, 3),
    (24, 3, 6, 2),
    (24, 2, 6, 3),
    (16, 4, 4, 2),
    (24, 3, 3, 1),
    (24, 2, 8, 4),
    (24, 8, 4, 2),
]


def state_digits(cfg: Configuration) -> int:
    """Most open-constraint digits a frontier state of cfg holds."""
    return occupancy._frontier_steps(cfg.params, *occupancy._incidence(cfg))[1]


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

    @pytest.mark.parametrize("entry", [0.5, 2, -1, np.nan])
    def test_non_binary_entries_rejected(self, entry):
        # all-0.5 gives every constraint of this wiring the tally 4 * 0.5 = r
        cfg = sample_configuration(Params(n=8, d=3, k=4, r=2), seed=3)
        with pytest.raises(ContractViolation):
            is_solution(cfg, np.full(8, entry))

    def test_bool_solution_accepted(self):
        assert is_solution(identity_config(), np.array([True, False, True, False]))

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

    def test_capacity_error(self, monkeypatch):
        """Past its state budget, divided by the 64-bit words a state needs, counting raises."""
        cfg = sample_configuration(Params(n=40, d=2, k=4, r=2), seed=1)
        assert 3 ** state_digits(cfg) < 2**63  # int64 states: one word
        monkeypatch.setattr(occupancy, "_FRONTIER_STATES", 12)
        with pytest.raises(CapacityError, match=r"^exact counting at n=40 .* over the limit of 12$"):
            count_solutions(cfg)
        cfg = sample_configuration(Params(n=120, d=3, k=4, r=2), seed=1)
        assert 2**64 <= 3 ** state_digits(cfg) < 2**127  # Python-integer states: two words
        with pytest.raises(CapacityError, match=r"^exact counting at n=120 .* over the limit of 6$"):
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


class TestFrontierCount:
    def test_matches_search_reference(self):
        repeated = solvable = wide = 0
        for i, (n, d, k, r) in enumerate(SEARCH_FAMILIES):
            for t in range(4):
                cfg = sample_configuration(Params(n=n, d=d, k=k, r=r), child_seed(211 + i, t))
                z = count_solutions(cfg)
                assert z == count_solutions_search_reference(cfg), (n, d, k, r, t)
                repeated += max_multiplicity(cfg) >= 2
                solvable += z > 0
                wide += (r + 1) ** state_digits(cfg) >= 2**63
        assert repeated >= 8 and solvable >= 20 and wide >= 1

    def test_identity_wirings_match_search_reference(self):
        for n, d, k, r in SEARCH_FAMILIES:
            cfg = Configuration(Params(n=n, d=d, k=k, r=r), np.arange(n * d))
            assert count_solutions(cfg) == count_solutions_search_reference(cfg)

    def test_two_cycles_count_two_to_the_seventy(self):
        # 70 pairs of variables, each pair wired into its own two
        # constraints: x_u + x_v = 1 twice, so 2 solutions per pair
        n = 140
        wiring = np.array([[4 * i, 4 * i + 2, 4 * i + 1, 4 * i + 3] for i in range(n // 2)])
        cfg = Configuration(Params(n=n, d=2, k=2, r=1), wiring.ravel())
        assert count_solutions(cfg) == 2**70

    def test_bipartite_two_colourings_on_wide_states(self):
        # k = 2, r = 1 asks x_u + x_v = 1 across every constraint: a
        # 2-colouring, 2 per component of a bipartite graph.  Three random
        # matchings between halves of 200 variables need more than 63
        # bits of state, so states and counts are Python integers.
        n, half = 200, 100
        rng = np.random.default_rng(5)
        wiring = np.empty((n, 3), dtype=np.int64)
        for j in range(3):
            match = rng.permutation(half)
            for a, (u, v) in enumerate(zip(range(half), half + match)):
                wiring[u, j], wiring[v, j] = 2 * (j * half + a), 2 * (j * half + a) + 1
        cfg = Configuration(Params(n=n, d=3, k=2, r=1), wiring.ravel())
        assert 2 ** state_digits(cfg) >= 2**63
        assert count_solutions(cfg) == count_solutions_search_reference(cfg) == 2


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

    @pytest.mark.parametrize(
        "k,d,ns",
        [(4, 3, (36, 40, 44, 48)), (6, 3, (36, 42, 48)), (4, 2, (36, 40, 44, 48))],
    )
    def test_agrees_with_count_past_n32(self, k, d, ns):
        """Deciding and counting reach past n = 32 and agree; k=4, d=3 gives both outcomes."""
        outcomes = set()
        for n in ns:
            for t in range(10):
                cfg = sample_configuration(Params(n=n, d=d, k=k, r=2), child_seed(3600 + n, t))
                positive = count_solutions(cfg) > 0
                assert has_solution(cfg) == positive, (n, t)
                outcomes.add(positive)
        assert outcomes == ({False, True} if (k, d) == (4, 3) else {True})

    def test_node_budget(self, monkeypatch):
        """The search takes at most _SEARCH_WORK // m nodes and raises past them."""
        cfg = sample_configuration(Params(n=24, d=3, k=4, r=2), child_seed(29, 0))
        m, positive = cfg.params.m, count_solutions(cfg) > 0
        for nodes in range(1, 1000):  # the fewest nodes that decide cfg
            monkeypatch.setattr(occupancy, "_SEARCH_WORK", nodes * m + m - 1)
            try:
                decided = has_solution(cfg)
            except CapacityError as exc:
                assert str(exc) == (f"deciding at n=24 passed {nodes} search nodes, "
                                    f"the limit of {nodes * m + m - 1} // m at m={m}")
            else:
                break
        assert decided == positive and 10 < nodes < 1000

    @pytest.mark.parametrize(
        "n,d,k,r",
        [(16, 2, 2, 1), (32, 2, 2, 1), (16, 3, 4, 2), (32, 3, 4, 2), (12, 4, 6, 3), (24, 4, 6, 3)],
    )
    def test_complement_cut_at_k_equal_2r(self, n, d, k, r):
        """At k = 2r the search drops the first decision's 1-branch and still decides right."""
        hits = 0
        for t in range(40):
            cfg = sample_configuration(Params(n=n, d=d, k=k, r=r), child_seed(2727, t))
            positive = count_solutions_search_reference(cfg) > 0
            assert has_solution(cfg) == positive
            hits += positive
        assert 0 < hits < 40

    def test_no_complement_cut_when_k_is_not_2r(self):
        """1-in-4 has no complement symmetry: the first decision's 1-branch is needed.

        On 44 of these wirings every solution sets the first decision's
        variable, the least member of constraint 0, to 1.
        """
        needs_one_branch = 0
        for t in range(300):
            cfg = sample_configuration(Params(n=8, d=3, k=4, r=1), child_seed(5, t))
            sols = solutions_bruteforce(cfg)
            assert has_solution(cfg) == bool(sols)
            v = min(cfg.constraint_members()[0])
            needs_one_branch += bool(sols) and all(x[v] == 1 for x in sols)
        assert needs_one_branch == 44


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

    def test_capacity_error_past_node_budget(self, monkeypatch):
        monkeypatch.setattr(occupancy, "_SEARCH_WORK", 18 * 5)  # 5 nodes at m = 18
        with pytest.raises(CapacityError, match="at n=24 passed 5 search nodes"):
            estimate_sat_probability(k=4, d=3, n_list=[8, 24], trials=10, seed=1)

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

    def test_memory_is_bounded_in_trials(self, monkeypatch):
        # Drawing all 30000 wirings at once, one Configuration each, takes
        # about 22 MiB here; blocks of consecutive trials keep it flat.
        monkeypatch.setattr(occupancy, "has_solution", lambda cfg: True)
        estimate_sat_probability(k=4, d=3, n_list=[8], trials=10, seed=7)
        tracemalloc.start()
        try:
            (row,) = estimate_sat_probability(k=4, d=3, n_list=[8], trials=30000, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert row.sat_count == 30000
        assert peak < 8 * 2**20

    def test_one_map_for_every_n(self, monkeypatch):
        """Every n's trials go through one parallel_map call, so one worker pool."""
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
        # one task per block of consecutive trials: a block per n at one
        # thread, two per n at two threads, so each worker gets one
        assert calls == [3, 6]
        assert rows[1] == rows[2]

    def test_deterministic_under_seed(self):
        a = estimate_sat_probability(k=4, d=3, n_list=[8], trials=25, seed=21)
        b = estimate_sat_probability(k=4, d=3, n_list=[8], trials=25, seed=21)
        assert a == b
