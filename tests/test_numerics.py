"""Numeric kernel: log combinatorics, divergences, root finding."""

import itertools
import math
import warnings
from collections import Counter

import numpy as np
import pytest

from occuthresh import numerics
from occuthresh.errors import BracketError, ContractViolation, ParameterError
from occuthresh.numerics import (
    Channel,
    LogReal,
    Pmf,
    binary_entropy,
    find_root,
    kl_divergence_rows,
    log_binom,
    log_factorials,
    log_falling,
)

from tests.oracles import kl_divergence_rows_reference


def kl_one_row(p, q) -> float:
    """KL(p || q) of two pmfs, as a one-row call of kl_divergence_rows."""
    return float(kl_divergence_rows(np.reshape(p, (1, -1)), q)[0])


class TestLogFalling:
    def test_against_integers(self):
        for a in range(13):
            for b in range(-2, a + 3):
                inside = 0 <= b <= a
                want_ff = math.log(math.perm(a, b)) if inside else -math.inf
                want_binom = math.log(math.comb(a, b)) if inside else -math.inf
                assert math.isclose(log_falling(a, b), want_ff, abs_tol=1e-13), (a, b)
                assert math.isclose(log_binom(a, b), want_binom, abs_tol=1e-13), (a, b)


class TestLogFactorial:
    def test_empty_product(self):
        assert log_factorials(0)[0] == 0.0

    def test_small_against_integer_factorial(self):
        """Exact against the integer-factorial oracle for n <= 20."""
        table = log_factorials(20)
        for n in range(21):
            oracle = math.log(math.factorial(n)) if n else 0.0
            assert math.isclose(table[n], oracle, rel_tol=1e-15, abs_tol=1e-15)

    def test_entries_are_lgamma_bits(self, monkeypatch):
        """Entry i is exactly ``math.lgamma(i + 1)``, which the second-moment oracle shares.

        The shared table is grown in a mixed order, and every answer holds
        the bits of one fresh build.
        """
        monkeypatch.setattr(numerics, "_log_factorials", np.zeros(0))
        fresh = np.array([math.lgamma(i + 1) for i in range(13001)])
        for n in (20, 12000, 5, 13000):
            table = log_factorials(n)
            assert table.shape == (n + 1,) and table.dtype == np.float64
            assert table.tobytes() == fresh[: n + 1].tobytes()
        assert numerics._log_factorials.tobytes() == fresh.tobytes()

    def test_returned_table_is_read_only(self, monkeypatch):
        monkeypatch.setattr(numerics, "_log_factorials", np.zeros(0))
        for n in (10, 4):  # the call that grows the table, and one served from it
            table = log_factorials(n)
            with pytest.raises(ValueError):
                table[0] = 1.0
        assert numerics._log_factorials[0] == 0.0

    def test_request_above_retention_bound_is_not_kept(self, monkeypatch):
        monkeypatch.setattr(numerics, "_log_factorials", np.zeros(0))
        kept = numerics._LOG_FACTORIALS_KEPT
        log_factorials(kept - 1)  # the longest table that is kept
        assert numerics._log_factorials.size == kept
        n = kept + 100
        table = log_factorials(n)
        assert numerics._log_factorials.size == kept
        assert table.tobytes() == np.fromiter((math.lgamma(i + 1) for i in range(n + 1)), float).tobytes()
        with pytest.raises(ValueError):
            table[0] = 1.0

    def test_eight(self):
        lf8 = log_factorials(8)[8]
        assert math.isclose(lf8, math.log(40320), rel_tol=1e-14)
        assert round(lf8, 5) == 10.60460

    def test_hundred_against_summation(self):
        oracle = sum(math.log(i) for i in range(1, 101))
        assert math.isclose(log_factorials(100)[100], oracle, rel_tol=1e-10)

    def test_consecutive_difference_is_log_n(self):
        """lf(n) - lf(n-1) = ln n, at tolerance 1e-12 relative to magnitude.

        The spread is relative to lf(n) because one double-precision ulp
        of ln(10^6!) is ~2e-9, which already exceeds 1e-12 absolutely.
        """
        table = log_factorials(10**6)
        ns = np.unique(np.concatenate([np.arange(1, 2000), np.geomspace(2000, 10**6, 500).astype(int)]))
        lf = table[ns]
        lf_prev = table[ns - 1]
        err = np.abs((lf - lf_prev) - np.log(ns))
        assert np.all(err <= 1e-12 * np.maximum(1.0, lf))

    def test_table_against_integer_factorial(self):
        table = log_factorials(2000)
        assert table.shape == (2001,)
        assert table[0] == 0.0 and table[1] == 0.0
        for n in (2, 3, 10, 57, 170, 171, 500, 1999, 2000):
            assert math.isclose(table[n], math.log(math.factorial(n)), rel_tol=1e-14)


class TestLogMultinomial:
    """Multinomial coefficients n! / prod(parts!) from log_factorials entries."""

    @staticmethod
    def log_multinomial(n, parts) -> float:
        lf = log_factorials(n)
        return float(lf[n] - sum(lf[p] for p in parts))

    def test_two_subsets_of_four(self):
        oracle = len(list(itertools.combinations(range(4), 2)))
        assert math.isclose(self.log_multinomial(4, [2, 2]), math.log(oracle), rel_tol=1e-14)

    def test_single_block(self):
        assert self.log_multinomial(7, [7]) == 0.0

    def test_arrangement_count(self):
        # arrangements of one 'a' and one 'c' over two slots
        words = {p for p in itertools.permutations("ac")}
        assert math.isclose(self.log_multinomial(2, [1, 0, 1]), math.log(len(words)), rel_tol=1e-14)


class TestBinaryEntropy:
    def test_symmetric_maximum(self):
        assert math.isclose(binary_entropy(0.5), math.log(2), rel_tol=1e-15)

    def test_degenerate(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_point_four(self):
        assert math.isclose(binary_entropy(0.4), 0.673012, abs_tol=5e-7)
        assert math.isclose(binary_entropy(0.4), binary_entropy(0.6), rel_tol=1e-14)

    def test_domain(self):
        with pytest.raises(ParameterError):
            binary_entropy(-0.1)
        with pytest.raises(ParameterError):
            binary_entropy(1.1)


class TestKlDivergence:
    def test_identical(self):
        p = np.array([0.3, 0.2, 0.5])
        assert kl_one_row(p, p) == 0.0

    def test_single_term(self):
        assert math.isclose(
            kl_one_row([1.0, 0.0], [1 / 6, 5 / 6]),
            math.log(6),
            rel_tol=1e-12,
        )

    def test_support_violation_is_inf(self):
        assert kl_one_row([0.5, 0.5], [1.0, 0.0]) == math.inf

    def test_length_mismatch(self):
        with pytest.raises(ContractViolation):
            kl_one_row([1.0], [0.5, 0.5])

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            size = rng.integers(2, 6)
            p = rng.dirichlet(np.ones(size))
            q = rng.dirichlet(np.ones(size))
            val = kl_one_row(p, q)
            assert val >= -1e-12
            if np.max(np.abs(p - q)) > 1e-12:
                assert val > 0.0
            assert kl_one_row(p, p) == 0.0

    def test_rows_agree_with_scalar(self):
        rng = np.random.default_rng(3)
        q = rng.dirichlet(np.ones(4))
        ps = rng.dirichlet(np.ones(4), size=50)
        rows = kl_divergence_rows(ps, q)
        for i in range(50):
            assert math.isclose(rows[i], kl_one_row(ps[i], q), rel_tol=1e-12)

    def test_tiny_perturbation_accuracy(self):
        # Chi-square limit: KL(q + t v || q) -> (t^2 / 2) sum v_i^2 / q_i.
        q = np.array([0.2, 0.3, 0.5])
        v = np.array([1.0, -2.0, 1.0])
        t = 1e-7
        expected = 0.5 * t * t * float(np.sum(v * v / q))
        got = float(kl_divergence_rows((q + t * v).reshape(1, -1), q)[0])
        assert math.isclose(got, expected, rel_tol=1e-5)

    @pytest.mark.parametrize("tiny", [1e-17, 1e-300, 5e-324])
    def test_entry_far_below_reference(self, tiny):
        # p - q rounds to -q here, so log1p((p - q) / q) alone would give -inf.
        q = np.array([0.5, 0.5])
        p = np.array([tiny, 1.0 - tiny])
        expected = tiny * (math.log(tiny) - math.log(0.5)) + (1.0 - tiny) * math.log(2.0 * (1.0 - tiny))
        got = float(kl_divergence_rows(p.reshape(1, -1), q)[0])
        assert math.isclose(got, expected, rel_tol=1e-15)

    @pytest.mark.parametrize("q0", [1e-310, 5e-324])
    def test_subnormal_reference_entry_is_finite(self, q0):
        # (p - q) / q overflows here, so log1p((p - q) / q) alone would give +inf
        # (and a warning, which the test configuration turns into an error).
        mpmath = pytest.importorskip("mpmath")
        p, q = np.array([1.0, 0.0]), np.array([q0, 1.0])
        got = float(kl_divergence_rows(p.reshape(1, -1), q)[0])
        exact = kl_one_row_exact(mpmath, p, q)
        assert abs(got - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("separation", [1e-2, 1e-3, 1e-4])
    def test_relative_error_against_mpmath(self, separation):
        """Relative error <= 1e-11 while max |p - q| >= 1e-4.

        Each term p log1p(d/q) - d cancels its own O(d) part, so the
        error grows like 1e-16 / |p - q| (about 1e-12 at 1e-4).  The
        reference is sum(p ln(p/q) - p + q) at 50 digits on the same
        floats.  The pmfs are random 3-cell ones and the k = 4 output
        pmf of the occupation channel against its value at w1 = 1/2.
        """
        mpmath = pytest.importorskip("mpmath")
        from occuthresh.moments import output_count_pmf

        rng = np.random.default_rng(11)
        pairs = []
        for _ in range(200):
            q = rng.dirichlet(np.full(3, 4.0))
            v = rng.normal(size=3)
            v -= v.mean()
            p = q + separation * v / np.abs(v).max()
            if np.all(p > 0.0):
                pairs.append((p, q))
        for sign in (1.0, -1.0):
            pairs.append((output_count_pmf(0.5 + sign * separation, 4), output_count_pmf(0.5, 4)))
        with mpmath.workdps(50):
            for p, q in pairs:
                exact = mpmath.fsum(
                    mpmath.mpf(pi) * mpmath.log(mpmath.mpf(pi) / mpmath.mpf(qi)) - pi + qi
                    for pi, qi in zip(p.tolist(), q.tolist())
                )
                assert abs(kl_one_row(p, q) - exact) <= 1e-11 * exact


def _adversarial_kl_batch(rng) -> tuple[np.ndarray, np.ndarray]:
    """A batch of rows against a reference pmf, salted with every case the kernel fixes up.

    Rows carry zero entries (face rows), entries so far below the
    reference that ``(p - q) / q`` rounds to -1 (the lost case, subnormal
    p among them), and copies of the reference; the reference may carry
    zero and subnormal entries.  Half the batches are in Fortran order.
    """
    n, m = int(rng.integers(1, 9)), int(rng.integers(2, 13))  # m >= 8 sums pairwise in C order
    q = rng.dirichlet(np.ones(m))
    for j in np.flatnonzero(rng.random(m) < 0.15):
        q[j] = rng.choice([0.0, 5e-324, 1e-310])
    ps = rng.dirichlet(np.ones(m), size=n)
    ps[rng.random(n) < 0.2] = q
    near = rng.random(n) < 0.2
    ps[near] = q + 1e-6 * rng.normal(size=(int(near.sum()), m))
    salt = rng.random((n, m))
    ps[salt < 0.1] = 0.0
    tiny = (salt >= 0.1) & (salt < 0.15)
    ps[tiny] = rng.choice([5e-324, 1e-310, 1e-300, 1e-17], size=int(tiny.sum()))
    if rng.random() < 0.5:
        ps = np.asfortranarray(ps)
    return ps, q


class TestKlKernelAgainstReference:
    def test_bitwise_equal_to_frozen_reference(self):
        """The kernel's sums match the reference's bit for bit on adversarial batches, without warnings.

        The one exception is a row where a normal p against a subnormal q
        overflows ``(p - q) / q``: the reference warns and returns ``inf``,
        the kernel returns the finite sum, checked against mpmath at 50
        digits, unless the row also puts mass on a zero of q.
        """
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(2206)
        cases = Counter()
        for _ in range(2500):
            ps, q = _adversarial_kl_batch(rng)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                want = kl_divergence_rows_reference(ps, q)
            with warnings.catch_warnings(record=True) as got_warned:
                warnings.simplefilter("always")
                got = kl_divergence_rows(ps, q)
            assert [str(w.message) for w in got_warned] == []
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                ratio = (ps - q) / q
                cases["no fix-up"] += bool(np.isfinite(ps * np.log1p(ratio) - (ps - q)).all())
            # rows sent to +inf by an overflow alone, not by mass on a zero of q
            overflow = (want == np.inf) & ~((q == 0.0) & (ps > 0.0)).any(axis=1)
            assert got[~overflow].tobytes() == want[~overflow].tobytes(), (ps, q)
            for p_row, value in zip(ps[overflow], got[overflow]):
                exact = kl_one_row_exact(mpmath, p_row, q)
                assert abs(value - exact) <= 1e-12 * exact, (p_row, q)
            cases["lost"] += bool(((ps > 0.0) & (ratio == -1.0)).any())
            cases["zero p"] += bool((ps == 0.0).any())
            cases["zero q"] += bool((q == 0.0).any())
            cases["subnormal q"] += bool(((q > 0.0) & (q < np.finfo(float).tiny)).any())
            cases["overflow"] += bool(overflow.any())
            cases["row equals q"] += bool((ps == q).all(axis=1).any())
            cases["fortran"] += bool(ps.flags.f_contiguous and not ps.flags.c_contiguous)
        assert min(cases.values()) >= 100, cases


def kl_one_row_exact(mpmath, p, q):
    """sum(p ln(p/q) - p + q) at 50 digits on the given floats, with 0 ln 0 = 0."""
    with mpmath.workdps(50):
        return mpmath.fsum(
            (mpmath.mpf(pi) * mpmath.log(mpmath.mpf(pi) / mpmath.mpf(qi)) if pi > 0.0 else 0)
            - pi + qi
            for pi, qi in zip(p.tolist(), q.tolist())
        )


class TestPmfChannelTypes:
    def test_pmf_validation(self):
        with pytest.raises(ContractViolation):
            Pmf(np.array([0.5, 0.6]))
        with pytest.raises(ContractViolation):
            Pmf(np.array([-0.1, 1.1]))

    def test_channel_validation(self):
        with pytest.raises(ContractViolation):
            Channel(np.array([[0.5, 0.2], [0.4, 0.8]]))

    def test_channel_apply(self):
        w = Channel(np.array([[0.9, 0.1], [0.1, 0.9]]))
        q = w.apply(Pmf(np.array([1.0, 0.0])))
        np.testing.assert_allclose(q.weights, [0.9, 0.1])

    def test_logreal_arithmetic(self):
        assert math.isclose(LogReal(math.log(6.0)).linear(), 6.0, rel_tol=1e-12)
        assert LogReal(800.0).linear() == math.inf
        assert LogReal.zero().is_zero
        assert LogReal.zero().linear() == 0.0
        assert not LogReal(0.0).is_zero

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ContractViolation, match="finite"):
            Pmf(np.array([bad, 0.5]))
        with pytest.raises(ContractViolation, match="finite"):
            Channel(np.array([[bad, 0.2], [0.5, 0.8]]))


class TestFindRoot:
    def test_linear(self):
        assert abs(find_root(lambda x: x - 0.25, 0.0, 1.0, 1e-12) - 0.25) < 1e-11

    def test_bound_crossover(self):
        """Crossover of the two k=4 lower-bound curves sits near 0.10831."""
        from occuthresh.sdpi import k4_logsum_bound, k4_quadratic_bound

        root = find_root(
            lambda x: k4_quadratic_bound(x) - k4_logsum_bound(x), 0.05, 0.2, 1e-12
        )
        assert abs(root - 0.10831) < 1e-5

    def test_sqrt_two(self):
        root = find_root(lambda x: x * x - 2.0, 1.0, 2.0, 1e-12)
        assert math.isclose(root, math.sqrt(2.0), rel_tol=1e-11)

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x * x + 1.0, -1.0, 1.0, 1e-10)

    def test_deterministic(self):
        f = lambda x: math.cos(x) - x  # noqa: E731
        assert find_root(f, 0.0, 1.0, 1e-13) == find_root(f, 0.0, 1.0, 1e-13)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(ParameterError, match="need a finite tol > 0"):
            find_root(lambda x: x - 0.25, 0.0, 1.0, tol)
