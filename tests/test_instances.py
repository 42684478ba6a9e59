"""Instance generation, structure counts, and serialization."""

import math
from fractions import Fraction

import numpy as np
import pytest

from occuthresh import instances
from occuthresh.cycles import census_samples
from occuthresh.errors import ParameterError, ParseError, RetryLimitError
from occuthresh.instances import (
    Configuration,
    Params,
    child_seed,
    count_two_cycles,
    deserialize,
    expected_redundant_exact,
    sample_configuration,
    sample_simple,
    serialize,
    splitmix64_outputs,
)
from occuthresh.numerics import LogReal
from tests.oracles import count_redundant_constraints, fisher_yates_reference


def identity_config() -> Configuration:
    return Configuration(Params(n=4, d=2, k=4, r=2), np.arange(8))


class TestParams:
    def test_empty_family(self):
        with pytest.raises(ParameterError):
            Params(n=5, d=2, k=4, r=2)  # d*n = 10 not divisible by 4

    def test_r_range(self):
        with pytest.raises(ParameterError):
            Params(n=4, d=2, k=4, r=4)
        with pytest.raises(ParameterError):
            Params(n=4, d=2, k=4, r=0)

    def test_m(self):
        assert Params(n=4, d=2, k=4, r=2).m == 2
        assert Params(n=400, d=3, k=4, r=2).m == 300


class TestSplitMix:
    def test_known_vector(self):
        # First output of the SplitMix64 stream seeded with 0.
        assert int(splitmix64_outputs(0, 0, 1)[0]) == 0xE220A8397B1DCDAF

    def test_child_seeds_distinct(self):
        seeds = [child_seed(123, i) for i in range(100)]
        assert len(set(seeds)) == 100


_ALL_ONES = np.uint64((1 << 64) - 1)  # rejected below every bound but powers of two


def _stream_with_rejections(seed, start, count):
    """The SplitMix64 stream with ``2^64 - 1`` at every 5th index and at 30..41.

    ``seed`` is an int or a uint64 array of seeds, as for ``splitmix64_outputs``.
    """
    out = splitmix64_outputs(seed, start, count)
    idx = np.arange(start, start + count)
    out[..., (idx % 5 == 0) | ((idx >= 30) & (idx <= 41))] = _ALL_ONES
    return out


def _stream_rejecting_odd_seeds(seed, start, count):
    """``_stream_with_rejections`` for odd seeds and the true stream for even ones."""
    odd = np.asarray(seed, dtype=np.uint64) % np.uint64(2) == 1
    return np.where(np.expand_dims(odd, -1), _stream_with_rejections(seed, start, count),
                    splitmix64_outputs(seed, start, count))


def _stream_of_picks(kind, n):
    """A stream whose draw for step i = n-1 .. 1 picks slot i - 1, slot 0 or slot i."""

    def outputs(seed, start, count):
        steps = n - 1 - np.arange(start, start + count)
        picks = {"previous": steps - 1, "first": 0 * steps, "own": steps}[kind]
        out = np.maximum(picks, 0).astype(np.uint64)
        return np.broadcast_to(out, np.shape(seed) + out.shape).copy()

    return outputs


def _one_permutation(seed, n):
    return instances._permutations([seed], n)[0]


class TestFisherYates:
    @pytest.mark.parametrize("n", [2, 3, 4, 36, 1200, 12000])
    def test_matches_scalar_reference(self, n):
        for seed in range(40):
            got = _one_permutation(seed, n)
            assert got.tobytes() == fisher_yates_reference(seed, n, splitmix64_outputs).tobytes()

    def test_rejected_draws_match_scalar_reference(self, monkeypatch):
        monkeypatch.setattr(instances, "splitmix64_outputs", _stream_with_rejections)
        for n in (2, 3, 4, 36, 1200):
            for seed in range(5):
                got = _one_permutation(seed, n)
                want = fisher_yates_reference(seed, n, _stream_with_rejections)
                assert got.tobytes() == want.tobytes(), (n, seed)


# More rows than one block of the n = 400, d = 3, k = 4 census and sample_simple.
_OVER_ONE_BLOCK = instances._block_rows(Params(n=400, d=3, k=4, r=2)) + 3


class TestBatchedFisherYates:
    """Every row of a batch is the permutation its seed gives alone."""

    @pytest.mark.parametrize("n", [2, 3, 4, 36, 1200])
    @pytest.mark.parametrize("rows", [1, 2, _OVER_ONE_BLOCK])
    def test_rows_match_scalar_reference(self, n, rows):
        seeds = splitmix64_outputs(n, 0, rows)  # full 64-bit seeds
        got = instances._permutations(seeds, n)
        assert got.shape == (rows, n) and got.dtype == np.int64
        for seed, row in zip(seeds.tolist(), got):
            assert row.tobytes() == fisher_yates_reference(seed, n, splitmix64_outputs).tobytes()

    @pytest.mark.parametrize("n", [2, 3, 4, 36, 1200])
    @pytest.mark.parametrize("rows", [1, 2, _OVER_ONE_BLOCK])
    def test_rejected_and_clean_rows_mixed(self, monkeypatch, n, rows):
        monkeypatch.setattr(instances, "splitmix64_outputs", _stream_rejecting_odd_seeds)
        seeds = list(range(7, 7 + rows))  # odd seeds draw rejected outputs, even ones none
        got = instances._permutations(seeds, n)
        for seed, row in zip(seeds, got):
            want = fisher_yates_reference(seed, n, _stream_rejecting_odd_seeds)
            assert row.tobytes() == want.tobytes(), (n, seed)

    @pytest.mark.parametrize("kind", ["previous", "first", "own"])
    @pytest.mark.parametrize("n", [2, 3, 36, 1200])
    def test_extreme_pick_patterns(self, monkeypatch, kind, n):
        """Each step picking the slot below it (one chain through all n slots), slot 0 or itself."""
        stream = _stream_of_picks(kind, n)
        monkeypatch.setattr(instances, "splitmix64_outputs", stream)
        want = fisher_yates_reference(0, n, stream)
        for row in instances._permutations([0, 1, 2], n):
            assert row.tobytes() == want.tobytes()


class TestCheckPermutations:
    """``_check_permutations`` on a block of 13 rows of 1200 slots."""

    @staticmethod
    def block():
        return instances._permutations(splitmix64_outputs(25, 0, 13), 1200)

    def test_valid_block_passes(self):
        instances._check_permutations(self.block())

    def test_repeated_entry_in_a_middle_row(self):
        wirings = self.block()
        wirings[6, 0] = wirings[6, 1]
        with pytest.raises(ParameterError, match="^wiring is not a permutation$"):
            instances._check_permutations(wirings)

    @pytest.mark.parametrize("entry", [1200, -1])
    def test_out_of_range_entry_in_a_middle_row(self, entry):
        # each would mark an entry of a neighbouring row in the flat scan
        wirings = self.block()
        wirings[6, 5] = entry
        with pytest.raises(ParameterError, match="^wiring entries out of range$"):
            instances._check_permutations(wirings)


class TestConfigurationEntries:
    @pytest.mark.parametrize(
        "wiring",
        [[0.9, 1.5, 2.2, 3.99], np.array([0.9, 1.5, 2.2, 3.99]), [0, 1, 2, np.nan],
         [0, 1, 2, np.inf], [True, False, True, False]],
    )
    def test_non_integer_entries_rejected(self, wiring):
        with pytest.raises(ParameterError, match=r"^wiring entries must be integers in \[0, 4\)$"):
            Configuration(Params(n=2, d=2, k=2, r=1), wiring)

    def test_whole_float_entries_accepted(self):
        cfg = Configuration(Params(n=2, d=2, k=2, r=1), np.array([3.0, 2.0, 1.0, 0.0]))
        assert cfg.wiring.dtype == np.int64 and cfg.wiring.tolist() == [3, 2, 1, 0]

    def test_int64_wiring_kept_as_is(self):
        wiring = np.array([3, 2, 1, 0], dtype=np.int64)
        assert Configuration(Params(n=2, d=2, k=2, r=1), wiring).wiring is wiring


class TestSampling:
    def test_shape_is_permutation(self):
        cfg = sample_configuration(Params(n=4, d=2, k=4, r=2), seed=5)
        assert sorted(cfg.wiring.tolist()) == list(range(8))

    def test_determinism(self):
        p = Params(n=12, d=3, k=4, r=2)
        a = sample_configuration(p, seed=99)
        b = sample_configuration(p, seed=99)
        assert np.array_equal(a.wiring, b.wiring)
        c = sample_configuration(p, seed=100)
        assert not np.array_equal(a.wiring, c.wiring)

    def test_uniform_over_all_permutations(self):
        """n=2, d=2, k=4 has 4! = 24 wirings; frequencies within 5 sigma."""
        p = Params(n=2, d=2, k=4, r=2)
        trials = 100_000
        # the wirings of child seeds 0 .. trials-1 of 2024, in one batch
        wirings = instances._permutations(splitmix64_outputs(2024, 0, trials), p.n_slots)
        _, counts = np.unique(wirings, axis=0, return_counts=True)
        assert len(counts) == 24
        expected = trials / 24
        sigma = math.sqrt(trials * (1 / 24) * (23 / 24))
        for freq in counts.tolist():
            assert abs(freq - expected) <= 5 * sigma

    def test_permutation_always(self):
        for seed in range(25):
            cfg = sample_configuration(Params(n=20, d=3, k=4, r=2), seed)
            assert np.array_equal(np.sort(cfg.wiring), np.arange(60))


class TestFactorGraph:
    """Constraint neighborhoods, as ``constraint_members`` gives them."""

    def test_identity_wiring_neighbors(self):
        assert identity_config().constraint_members().tolist() == [[0, 0, 1, 1], [2, 2, 3, 3]]

    def test_degrees_preserved(self):
        for seed in range(10):
            p = Params(n=12, d=3, k=4, r=2)
            members = sample_configuration(p, seed).constraint_members()
            counts = np.bincount(members.ravel(), minlength=p.n)
            assert np.all(counts == p.d)

    def test_handcrafted_instance(self):
        # Two 3-ary constraints each touching all three degree-2 variables:
        # variable i sends slot 2i to constraint 0 and slot 2i+1 to constraint 1.
        p = Params(n=3, d=2, k=3, r=2)
        cfg = Configuration(p, np.array([0, 3, 1, 4, 2, 5]))
        assert cfg.constraint_members().tolist() == [[0, 1, 2], [0, 1, 2]]


class TestTwoCycles:
    def test_identity_wiring_by_exhaustive_pair_scan(self):
        cfg = identity_config()
        brute = 0
        p = cfg.params
        for s1 in range(p.n_slots):
            for s2 in range(s1 + 1, p.n_slots):
                if s1 // p.d == s2 // p.d and cfg.wiring[s1] // p.k == cfg.wiring[s2] // p.k:
                    brute += 1
        assert brute == 4
        assert count_two_cycles(cfg) == 4

    def test_simple_sample_has_none(self):
        cfg = sample_simple(Params(n=40, d=3, k=4, r=2), seed=8)
        assert count_two_cycles(cfg) == 0

    def test_sample_simple_deterministic(self):
        p = Params(n=40, d=3, k=4, r=2)
        a = sample_simple(p, seed=8)
        b = sample_simple(p, seed=8)
        assert np.array_equal(a.wiring, b.wiring)

    def test_retry_limit(self):
        # n=2, d=2, k=4 forces both edges of a variable into the single
        # constraint, so a simple configuration does not exist.
        with pytest.raises(RetryLimitError) as err:
            sample_simple(Params(n=2, d=2, k=4, r=2), seed=1, max_attempts=5)
        assert err.value.attempts == 5

    def test_retry_limit_off_block_boundary(self, monkeypatch):
        """A limit that is no multiple of the block size draws exactly that many seeds."""
        p = Params(n=2, d=2, k=4, r=2)
        max_attempts = 2 * instances._block_rows(p) + 5
        drawn, draw = [], instances._permutations

        def recording(seeds, n):
            drawn.append(np.array(seeds, dtype=np.uint64))
            return draw(seeds, n)

        monkeypatch.setattr(instances, "_permutations", recording)
        with pytest.raises(RetryLimitError) as err:
            sample_simple(p, seed=3, max_attempts=max_attempts)
        assert err.value.attempts == max_attempts
        assert len(drawn) == 3
        assert np.concatenate(drawn).tolist() == [child_seed(3, i) for i in range(max_attempts)]

    @pytest.mark.parametrize("n,d,k", [(40, 3, 4), (400, 3, 4), (12, 3, 4)])
    def test_accepts_first_simple_attempt(self, n, d, k):
        p = Params(n=n, d=d, k=k, r=2)
        for seed in range(6):
            attempt = 0
            while count_two_cycles(sample_configuration(p, child_seed(seed, attempt))):
                attempt += 1
            want = sample_configuration(p, child_seed(seed, attempt))
            assert sample_simple(p, seed).wiring.tobytes() == want.wiring.tobytes()

    def test_acceptance_rate_near_poisson_zero_mass(self):
        """P[no two-cycles] ~ exp(-lambda_1) = exp(-3) at (k=4, d=3, n=400)."""
        trials = 1500
        # census sample t is the configuration of child_seed(77, t)
        censuses = census_samples(k=4, d=3, n=400, samples=trials, seed=77, l_max=1)
        simple = sum(c.count(1) == 0 for c in censuses)
        target = math.exp(-3.0)
        sigma = math.sqrt(target * (1 - target) / trials)
        assert abs(simple / trials - target) <= 3 * sigma


class TestRedundantConstraints:
    def test_pair_on_distinct_variables(self):
        # Each variable wired once into each constraint: v(0) = v(1) = {0,1,2,3}.
        cfg = Configuration(Params(n=4, d=2, k=4, r=2), np.array([0, 4, 1, 5, 2, 6, 3, 7]))
        assert count_redundant_constraints(cfg) == 1

    def test_identity_wiring_has_none(self):
        # Neighbor multisets carry repeats, so they never count.
        assert count_redundant_constraints(identity_config()) == 0

    def test_ensemble_mean_exact(self, exhaustive):
        assert exhaustive["mean_redundant"] == Fraction(8, 35)

    def test_monte_carlo_mean(self):
        p = Params(n=4, d=2, k=4, r=2)
        trials = 20_000
        # the wirings of child seeds 0 .. trials-1 of 5, in one batch
        wirings = instances._permutations(splitmix64_outputs(5, 0, trials), p.n_slots)
        total = sum(count_redundant_constraints(Configuration(p, w)) for w in wirings)
        mean = total / trials
        sigma = math.sqrt((8 / 35) * (1 - 8 / 35) / trials)  # indicator variance bound
        assert abs(mean - 8 / 35) <= 3 * sigma

    def test_expected_exact_small(self):
        val = expected_redundant_exact(Params(n=4, d=2, k=4, r=2))
        assert math.isclose(val.value, math.log(8 / 35), rel_tol=1e-12)
        assert math.isclose(val.linear(), 0.228571, abs_tol=5e-7)

    def test_expectation_vanishes(self):
        vals = [
            expected_redundant_exact(Params(n=n, d=2, k=4, r=2)).value for n in (4, 40, 400, 4000)
        ]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < -10

    def test_domain_error(self):
        with pytest.raises(ParameterError):
            expected_redundant_exact(Params(n=2, d=2, k=4, r=2))  # dn=4 < 2k=8

    def test_fewer_variables_than_k_expect_none(self):
        """With n < k no constraint has k distinct variables, so no pair is redundant."""
        assert expected_redundant_exact(Params(n=2, d=4, k=4, r=1)) == LogReal.zero()


class TestSerialization:
    def test_round_trip(self):
        cfg = sample_configuration(Params(n=8, d=3, k=4, r=2), seed=3)
        back = deserialize(serialize(cfg))
        assert back.params == cfg.params
        assert np.array_equal(back.wiring, cfg.wiring)

    def test_round_trip_identity(self):
        cfg = identity_config()
        back = deserialize(serialize(cfg))
        assert back.params == cfg.params
        assert np.array_equal(back.wiring, cfg.wiring)

    def test_duplicate_wiring_entry(self):
        text = serialize(identity_config()).replace("[0, 1", "[1, 1")
        with pytest.raises(ParseError) as err:
            deserialize(text)
        assert err.value.line == 6

    @pytest.mark.parametrize("entry", ["99999999999999999999", "-99999999999999999999"])
    def test_out_of_range_wiring_entry(self, entry):
        text = serialize(identity_config()).replace("[0, 1", f"[{entry}, 1")
        with pytest.raises(ParseError, match="signed 64-bit") as err:
            deserialize(text)
        assert err.value.line == 6

    def test_family_mismatch_is_parameter_error(self):
        text = "n = 5\nd = 2\nk = 4\nr = 2\nm = 2\nwiring = [0]\n"
        with pytest.raises(ParameterError):
            deserialize(text)

    def test_wrong_field_order(self):
        text = "d = 2\nn = 4\nk = 4\nr = 2\nm = 2\nwiring = [0]\n"
        with pytest.raises(ParseError) as err:
            deserialize(text)
        assert err.value.line == 1

    def test_missing_fields(self):
        with pytest.raises(ParseError, match=r"missing fields \['k', 'r', 'm', 'wiring'\]") as err:
            deserialize("n = 4\nd = 2\n")
        assert err.value.line == 3

    def test_non_integer(self):
        # reported before the fields missing after it
        text = "n = four\n"
        with pytest.raises(ParseError, match="must be an integer") as err:
            deserialize(text)
        assert err.value.line == 1

    def test_comments_ignored(self):
        text = "# manifest: seed = 1\n" + serialize(identity_config())
        assert deserialize(text).params.n == 4

    def test_stated_m_checked(self):
        text = serialize(identity_config()).replace("m = 2", "m = 3")
        with pytest.raises(ParameterError):
            deserialize(text)
