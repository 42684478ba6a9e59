"""Thresholds, free-entropy densities, and exact moment identities."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from occuthresh import cli, moments, numerics
from occuthresh.errors import CapacityError, ParameterError
from occuthresh.instances import Params
from occuthresh.moments import (
    Hessian2,
    OverlapPoint,
    _overlap_terms,
    _word_classes,
    first_moment_asymptotic,
    first_moment_exact,
    hessian_phi2,
    input_count_pmf,
    input_pmf_star,
    joint_moment_exact,
    output_count_pmf,
    phi1,
    phi2,
    second_moment_asymptotic,
    second_moment_exact_ratio,
    threshold_dstar,
    threshold_f,
    variance_explained,
    w_star,
)
from occuthresh.numerics import kl_divergence_rows
from occuthresh.occupancy import ones_quota
from occuthresh.cycles import delta_l, lambda_l, mu_l

from tests.oracles import (
    joint_moment_reference,
    overlap_rows_reference,
    second_moment_ratio_reference,
)


class TestThreshold:
    def test_k4_value(self):
        rep = threshold_dstar(4)
        expected = 4 * math.log(2) / (4 * math.log(2) - math.log(6))
        assert math.isclose(rep.d_star, expected, rel_tol=1e-14)
        assert abs(rep.d_star - 2.826778) <= 5e-6

    def test_k4_bounds(self):
        rep = threshold_dstar(4)
        assert rep.bounds_ok
        assert not rep.is_integer

    def test_bounds_and_nonintegrality_up_to_20(self):
        for k in range(4, 21):
            rep = threshold_dstar(k)
            assert rep.bounds_ok, k
            assert not rep.is_integer, k

    def test_fixed_point_consistency(self):
        # The large k are where the k ln k terms of threshold_f could cancel.
        for k in [*range(5, 21), 3549, 10**4, 10**5]:
            rep = threshold_dstar(k)
            assert abs(threshold_f(k, rep.d_star) - 1.0) <= 1e-10, k

    def test_matches_high_precision(self):
        # For large k, H(2/k) needs ln(1 - 2/k) to full relative precision.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for k in [*range(4, 41), 10**5, 10**6, 10**9]:
                p = mpmath.mpf(2) / k
                entropy = -p * mpmath.log(p) - (1 - p) * mpmath.log(1 - p)
                ln_w2 = mpmath.log(mpmath.mpf(2) / (k * (k - 1)))
                exact = k * entropy / (k * entropy + ln_w2)
                assert abs(threshold_dstar(k).d_star - exact) <= 1e-12 * exact, k

    def test_small_k_rejected(self):
        with pytest.raises(ParameterError):
            threshold_dstar(3)


class TestPhi1:
    def test_below_threshold_positive(self):
        assert math.isclose(phi1(4, 2), 0.5 * math.log(6) - math.log(2), rel_tol=1e-14)
        assert phi1(4, 2) > 0

    def test_above_threshold_negative(self):
        assert phi1(4, 3) < 0

    def test_zero_at_threshold(self):
        for k in range(4, 11):
            d_star = threshold_dstar(k).d_star
            assert abs(phi1(k, d_star)) <= 1e-12

    def test_sign_flip_around_threshold(self):
        for k in range(4, 11):
            d_star = threshold_dstar(k).d_star
            assert phi1(k, d_star - 0.01) > 0
            assert phi1(k, d_star + 0.01) < 0


class TestFirstMoment:
    def test_exact_matches_exhaustive_mean(self, exhaustive):
        value = first_moment_exact(exhaustive["params"])
        assert exhaustive["mean_z"] == Fraction(108, 35)
        assert math.isclose(value.linear(), 108 / 35, rel_tol=1e-12)

    def test_fractional_quota_flag(self):
        # k=4 does not divide 2n for n=3 (d=4 keeps the family nonempty)
        val = first_moment_exact(Params(n=3, d=4, k=4, r=2))
        assert val.is_zero

    def test_asymptotic_gap_small_and_shrinking(self):
        gaps = []
        for n in (20, 40, 80):
            exact = first_moment_exact(Params(n=n, d=2, k=4, r=2)).value
            asym = first_moment_asymptotic(4, 2, n).value
            gaps.append(abs(exact - asym))
        assert gaps[1] <= 0.1
        assert gaps[0] > gaps[1] > gaps[2]


class TestPhi2:
    def test_zero_at_reference(self):
        assert phi2(OverlapPoint(*w_star(4)), 4, 2) == 0.0

    def test_corner_equals_phi1(self):
        for k in range(4, 9):
            for d in (2, 3):
                assert math.isclose(
                    phi2(OverlapPoint(1.0, 1.0), k, d), phi1(k, d), rel_tol=1e-12
                )

    def test_domain_error(self):
        with pytest.raises(ParameterError):
            OverlapPoint(0.2, 0.5)  # w2 > w1

    def test_grid_minimum_nonnegative(self):
        """Vectorized 400x400 grid oracle: phi2 >= -1e-9, minimized at w*."""
        k, d = 4, 2
        p_star = input_pmf_star(k)
        q_star = output_count_pmf(2.0 / k, k)
        best = (math.inf, None)
        for w1 in np.linspace(0.0, 1.0, 400):
            w2 = np.linspace(max(0.0, 2 * w1 - 1.0), w1, 400)
            ps = np.column_stack([1 - 2 * w1 + w2, 2 * (w1 - w2), w2]).clip(0.0, None)
            ws = 2.0 / k
            q = np.array([1 - 2 * ws + ws * w1, 2 * ws * (1 - w1), ws * w1]).clip(0.0, None)
            vals = (d / k) * kl_divergence_rows(ps, p_star) - (d - 1) * float(
                kl_divergence_rows(q.reshape(1, -1), q_star)[0]
            )
            i = int(np.argmin(vals))
            if vals[i] < best[0]:
                best = (float(vals[i]), (w1, float(w2[i])))
        assert best[0] >= -1e-9
        w1s, w2s = w_star(k)
        assert abs(best[1][0] - w1s) < 0.01
        assert abs(best[1][1] - w2s) < 0.01

    def test_first_partials_vanish_at_reference(self):
        """Central differences along (w1, w2) and along the cell axes (w1, w1 - w2), h = 1e-4."""
        h = 1e-4
        k, d = 4, 2
        w1s, w2s = w_star(k)
        partials = []
        for to_count, (c1, c2) in (
            (lambda a, b: (a, b), (w1s, w2s)),
            (lambda a, b: (a, a - b), (w1s, w1s - w2s)),
        ):
            f = lambda a, b: phi2(OverlapPoint(*to_count(a, b)), k, d)  # noqa: E731
            partials.append((f(c1 + h, c2) - f(c1 - h, c2)) / (2 * h))
            partials.append((f(c1, c2 + h) - f(c1, c2 - h)) / (2 * h))
        for val in partials:
            assert abs(val) <= 2e-6


class TestHessian:
    def test_closed_form_entries(self):
        h = hessian_phi2(4, 2)
        assert (h.h11, h.h12, h.h22) == (11.0, -9.0, 9.0)
        assert math.isclose(h.det, 18.0, rel_tol=1e-12)

    def test_det_identity_across_parameters(self):
        for k in range(4, 13):
            for d in range(2, k):
                h = hessian_phi2(k, d)
                formula = d * k * (k - 1) ** 2 * (k - d) / (2 * (k - 2) ** 2 * (k - 3))
                assert math.isclose(h.det, formula, rel_tol=1e-12)
                assert h.positive_definite

    def test_finite_difference_agreement(self):
        k, d, h = 4, 2, 1e-3
        w1s, w2s = w_star(k)
        f = lambda a, b: phi2(OverlapPoint(a, b), k, d)  # noqa: E731
        fd11 = (f(w1s + h, w2s) - 2 * f(w1s, w2s) + f(w1s - h, w2s)) / (h * h)
        fd22 = (f(w1s, w2s + h) - 2 * f(w1s, w2s) + f(w1s, w2s - h)) / (h * h)
        fd12 = (
            f(w1s + h, w2s + h) - f(w1s + h, w2s - h) - f(w1s - h, w2s + h) + f(w1s - h, w2s - h)
        ) / (4 * h * h)
        closed = hessian_phi2(k, d)
        assert abs(fd11 - closed.h11) / abs(closed.h11) < 1e-4
        assert abs(fd12 - closed.h12) / abs(closed.h12) < 1e-4
        assert abs(fd22 - closed.h22) / abs(closed.h22) < 1e-4

    def test_k3_singular(self):
        with pytest.raises(ParameterError):
            hessian_phi2(3, 2)


class TestSecondMoment:
    def test_exact_matches_exhaustive(self, exhaustive):
        ratio = exhaustive["mean_z2"] / exhaustive["mean_z"] ** 2
        assert ratio == Fraction(35, 27)
        value = second_moment_exact_ratio(exhaustive["params"])
        assert math.isclose(value.linear(), 35 / 27, rel_tol=1e-12)

    def test_region_corner_is_full_overlap(self):
        # At r1 = n1 the region pins r2 = m exactly, i.e. w = (1, 1).
        params = Params(n=4, d=2, k=4, r=2)
        n1, m, d = 2, params.m, params.d
        lo, hi = max(0, d * n1 - m), (d * n1) // 2
        assert lo == hi == m
        assert (n1 / n1, m / m) == (1.0, 1.0)

    def test_exact_cli_output_does_not_depend_on_call_history(self, monkeypatch, tmp_path):
        """The shared ln(i!) table gives the same data sections grown upward or served from its top.

        The (k, d, n) are the benchmark's exact-moment calls; each order
        starts from an empty table.
        """
        kdn = [(4, d, n) for d in (2, 3) for n in (24, 1000, 2000, 4000)]
        kdn += [(6, d, n) for d in (3, 4) for n in (600, 1200, 2400)]

        def data_sections(order):
            monkeypatch.setattr(numerics, "_log_factorials", np.zeros(0))
            sections = {}
            for k, d, n in order:
                out = tmp_path / f"moments_{k}_{d}_{n}.txt"
                argv = ["moments", "--k", str(k), "--d", str(d), "--n", str(n), "--exact", "--out", str(out)]
                assert cli.main(argv) == 0
                lines = out.read_text().splitlines()
                sections[k, d, n] = [line for line in lines if not line.startswith("#")]
            return sections

        by_dn = sorted(kdn, key=lambda t: (t[1] * t[2], t))
        upward = data_sections(by_dn)
        downward = data_sections(by_dn[::-1])
        assert len(upward) == 14 and upward == downward

    def test_fractional_quota_flag(self):
        assert second_moment_exact_ratio(Params(n=3, d=4, k=4, r=2)).is_zero

    def test_matches_scalar_loop_reference(self, monkeypatch):
        """Bit for bit across every kind of chunk boundary, and within 1e-13 of the full sum.

        A limit of 1 puts each r1 in a chunk of its own, 7 groups short
        rows and leaves longer ones alone, 2^15 is the default.  The
        reference sums every term of the region; the exact sum leaves out
        those 64 nats below the largest and groups the rest otherwise, so
        the two agree to a few ulps (5.8e-15 relative at worst over k in
        {4, 5, 6, 8, 12}, d in {2, 3, 4, 5, 7}, n <= 480).  The table
        holds fractional quotas (k = 4, d = 4, n = 3; k = 8, d = 4,
        n = 30), n = 4000, and families above d*(k), where E[Z] -> 0.
        """
        cases = [(k, d, n) for k in (4, 5, 6, 8) for d in (2, 3, 4, 6)
                 for n in (3, 4, 8, 12, 30, 60, 120, 400, 1000) if (d * n) % k == 0]
        cases += [(4, 2, 4000), (4, 3, 4000), (6, 4, 2400), (5, 4, 2000), (8, 6, 1200), (12, 11, 1200)]
        params = [Params(n=n, d=d, k=k, r=2) for k, d, n in cases]
        assert sum(ones_quota(p) is None for p in params) >= 2
        assert sum(p.d > threshold_dstar(p.k).d_star for p in params) >= 20
        expected = [second_moment_ratio_reference(p) for p in params]
        default = [second_moment_exact_ratio(p).value for p in params]
        for p, value, ref in zip(params, default, expected):
            assert math.isclose(value, ref, rel_tol=1e-13), p
        for chunk in (1, 7):
            monkeypatch.setattr(moments, "_CHUNK_TERMS", chunk)
            for p, value in zip(params, default):
                assert second_moment_exact_ratio(p).value == value, (p, chunk)

    @pytest.mark.parametrize("k, d, n", [(4, 2, 1000), (6, 3, 600)])
    def test_left_out_terms_are_64_nats_down(self, k, d, n):
        """In a full enumeration, every term outside the kept windows is under the peak less 64 nats."""
        params = Params(n=n, d=d, k=k, r=2)
        n1 = ones_quota(params)
        rows, first, last = moments._overlap_windows(params, n1, moments._log_overlap_terms(params, n1))
        windows = {r1: (a, b) for r1, a, b in zip(rows.tolist(), first.tolist(), last.tolist())}
        region = overlap_rows_reference(params)
        floor = max(terms.max() for _, _, terms in region) - 64.0
        assert sum(b - a + 1 for a, b in windows.values()) < sum(terms.size for _, _, terms in region)
        for r1, lo, terms in region:
            a, b = windows.get(r1, (lo, lo - 1))
            outside = np.concatenate([terms[:a - lo], terms[b + 1 - lo:]])
            assert np.all(outside < floor), r1
            # kept terms reach the floor, up to the ulps of their own evaluation
            assert np.all(terms[a - lo:b + 1 - lo] >= floor - 1e-9), r1

    def test_few_terms_kept_above_threshold(self):
        """Above d*(4) the sum sits in a corner: at n = 4000 fewer than 1000 of 1.5M terms are kept."""
        params = Params(n=4000, d=3, k=4, r=2)
        n1 = ones_quota(params)
        _, first, last = moments._overlap_windows(params, n1, moments._log_overlap_terms(params, n1))
        assert _overlap_terms(n1, params.d, params.m) > 10**6
        assert (last - first + 1).sum() < 1000

    def test_no_r1_row_is_empty(self):
        """Every r1 <= n1 = 2m/d has d*r1 - m <= d*r1/2, so the chunked sum never meets an empty row."""
        for k in (4, 5, 6, 8, 12):
            for d in (2, 3, 4, 5, 7):
                for n in range(k, 241, k):
                    params = Params(n=n, d=d, k=k, r=2)
                    n1, m = 2 * n // k, params.m
                    assert all(max(0, d * r1 - m) <= (d * r1) // 2 for r1 in range(n1 + 1)), (k, d, n)

    def test_term_count_matches_region(self):
        for k in (4, 5, 6, 8):
            for d in (2, 3, 4, 5, 7):
                for n in range(k, 241, k):
                    params = Params(n=n, d=d, k=k, r=2)
                    n1, m = 2 * n // k, params.m
                    region = sum((d * r1) // 2 - max(0, d * r1 - m) + 1 for r1 in range(n1 + 1))
                    assert _overlap_terms(n1, d, m) == region, (k, d, n)

    def test_term_limit_refused_before_summing(self):
        # 2500100001 terms, past the count that the 64-nat cut's error bound covers
        with pytest.raises(CapacityError, match="sums 2500100001 overlap terms"):
            second_moment_exact_ratio(Params(n=200000, d=2, k=4, r=2))

    def test_converges_to_asymptotic(self):
        target = math.sqrt(1.5)
        ratios = [
            second_moment_exact_ratio(Params(n=n, d=2, k=4, r=2)).linear()
            for n in (500, 1000, 2000)
        ]
        errors = [abs(r - target) for r in ratios]
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] <= 0.1 * target

    def test_asymptotic_value(self):
        assert math.isclose(second_moment_asymptotic(4, 2), math.sqrt(1.5), rel_tol=1e-14)

    def test_asymptotic_laplace_form(self):
        """Prefactor form sqrt(2 / ((2 pi)^2 p0* p1* p2*)) with p* = (1/6, 2/3, 1/6)."""
        pstar = input_pmf_star(4)
        np.testing.assert_allclose(pstar, [1 / 6, 2 / 3, 1 / 6], atol=1e-15)
        prefactor = math.sqrt(2.0 / ((2 * math.pi) ** 2 * np.prod(pstar)))
        det_scaled = (16.0 / 4.0) * hessian_phi2(4, 2).det
        laplace = prefactor * math.sqrt((2 * math.pi) ** 2 / det_scaled)
        assert math.isclose(laplace, second_moment_asymptotic(4, 2), rel_tol=1e-10)

    def test_pole_guarded(self):
        with pytest.raises(ParameterError):
            second_moment_asymptotic(4, 4)

    @pytest.mark.parametrize("k, d", [(4, 3), (5, 4), (6, 4)])
    def test_no_limit_above_threshold(self, k, d):
        """Above d*(k), E[Z] -> 0 and E[Z^2]/E[Z]^2 >= 1/P(Z>0) diverges."""
        assert d > threshold_dstar(k).d_star
        with pytest.raises(ParameterError, match="finite limit"):
            second_moment_asymptotic(k, d)


class TestJointMoment:
    def test_exact_matches_exhaustive(self, exhaustive):
        assert exhaustive["mean_zx1"] == Fraction(144, 35)
        value = joint_moment_exact(exhaustive["params"], 1)
        assert math.isclose(value.linear(), 144 / 35, rel_tol=1e-12)

    def test_ratio_to_first_moment(self, exhaustive):
        params = exhaustive["params"]
        ratio = joint_moment_exact(params, 1).value - first_moment_exact(params).value
        assert math.isclose(ratio, math.log(4 / 3), rel_tol=1e-12)

    def test_ratio_approaches_mu(self):
        params = Params(n=400, d=2, k=4, r=2)
        ratio = math.exp(joint_moment_exact(params, 1).value - first_moment_exact(params).value)
        mu = mu_l(1, 4, 2)
        assert mu == 1.0
        assert abs(ratio - mu) <= 0.05 * mu

    def test_preconditions(self):
        with pytest.raises(ParameterError):
            joint_moment_exact(Params(n=4, d=2, k=4, r=2), 3)  # d*n1 = 4 < 2l
        with pytest.raises(ParameterError):
            joint_moment_exact(Params(n=4, d=2, k=4, r=2), 0)

    def test_fractional_quota_flag(self):
        assert joint_moment_exact(Params(n=3, d=4, k=4, r=2), 1).is_zero

    @pytest.mark.parametrize(
        "n, d, k, l_max",
        # (2, 4, 4): n1 = 1, so the words with two ones have falling factorial (n1)_2 = 0.
        [(40, 2, 4, 12), (60, 3, 4, 12), (60, 3, 6, 12), (100, 4, 8, 12), (90, 5, 10, 12), (2, 4, 4, 2)],
    )
    def test_matches_word_by_word_sum(self, n, d, k, l_max):
        params = Params(n=n, d=d, k=k, r=2)
        assert joint_moment_exact(params, 1).value == joint_moment_reference(params, 1)
        for l in range(2, l_max + 1):
            assert math.isclose(
                joint_moment_exact(params, l).value, joint_moment_reference(params, l), rel_tol=1e-13
            )

    def test_word_classes_partition_all_words(self):
        for l in range(1, 31):
            assert sum(count for _, _, count in _word_classes(l)) == 2**l
        for l in range(1, 13):
            tally = Counter()
            for y in range(1 << l):
                succ = ((y >> 1) | ((y & 1) << (l - 1))) if l > 1 else y
                tally[bin(y).count("1"), bin(y & succ).count("1")] += 1
            assert {(r1, r2): c for r1, r2, c in _word_classes(l)} == tally


class TestSmallSubgraphConditioning:
    """Janson's hypotheses as limits of exact sums, with no sampling.

    Below d*, E[Z X_l]/E[Z] -> lambda_l (1 + delta_l) and
    ln(E[Z^2]/E[Z]^2) -> sum_l lambda_l delta_l^2 = ln sqrt((k-1)/(k-d)).
    Each error runs e(n) = a/n + b/n^2 + O(1/n^3).  Over n = 240 * 4^j,
    j = 0..3, the O(1/n^2) term moves n*e(n) by -3b/(4n) per step, and the
    Richardson limit (4 e(4n) - e(n))/3 cancels a/n and leaves -b/(4n^2).
    The coefficient b is read off the first step, and the later steps
    and limits must follow it: each within 20%, where the next order
    moves them by up to 10% here.
    """

    NS = tuple(240 * 4**j for j in range(4))

    @pytest.mark.parametrize("k, d", [(4, 2), (6, 3), (8, 3)])
    def test_errors_fall_as_one_over_n(self, k, d):
        errors = {"ratio": [], "l=1": [], "l=2": [], "l=4": [], "l=8": []}
        for n in self.NS:
            params = Params(n=n, d=d, k=k, r=2)
            errors["ratio"].append(
                second_moment_exact_ratio(params).value - 0.5 * math.log((k - 1) / (k - d)))
            ln_ez = first_moment_exact(params).value
            for l in (1, 2, 4, 8):
                excess = joint_moment_exact(params, l).value - ln_ez - math.log(mu_l(l, k, d))
                errors[f"l={l}"].append(math.expm1(excess))
        for name, e in errors.items():
            steps = np.diff([n * x for n, x in zip(self.NS, e)])
            b = -4 * self.NS[0] * steps[0] / 3
            assert b != 0, name
            for j in (1, 2):
                # n*e(n) settles, each step a quarter of the one before ...
                predicted = -3 * b / (4 * self.NS[j])
                assert abs(steps[j] - predicted) <= 0.2 * abs(predicted), (name, j, steps)
                # ... towards a limit of 0: what is left after a/n is b/n^2
                richardson = (4 * e[j + 1] - e[j]) / 3
                assert abs(richardson) <= 1.2 * abs(b) / (4 * self.NS[j] ** 2), (name, j, richardson)


class TestVarianceExplained:
    def test_partial_sum_converges(self):
        res = variance_explained(4, 2, 60)
        assert abs(res.partial_sum - 0.5 * math.log(1.5)) <= 1e-12

    def test_single_term(self):
        # lambda_1 * delta_1^2 = 1.5 * (1/9) = 1/6, which equals the
        # series term (1/2) * ((d-1)/(k-1)).
        res = variance_explained(4, 2, 1)
        assert math.isclose(res.partial_sum, lambda_l(1, 4, 2) * delta_l(1, 4) ** 2, rel_tol=1e-14)
        assert math.isclose(res.partial_sum, 0.5 * (1 / 3), rel_tol=1e-14)

    def test_residual_geometric(self):
        residuals = [variance_explained(4, 2, l).residual for l in range(1, 12)]
        assert all(r >= 0 for r in residuals)
        ratios = [b / a for a, b in zip(residuals, residuals[1:])]
        assert all(r < 0.5 for r in ratios)  # decays at least geometrically with base 1/3-ish

    def test_exp_matches_asymptotic_ratio(self):
        res = variance_explained(4, 2, 60)
        assert math.isclose(math.exp(res.closed_form), second_moment_asymptotic(4, 2), rel_tol=1e-12)

    def test_divergence_guard(self):
        with pytest.raises(ParameterError):
            variance_explained(4, 4.5, 10)


class TestSeriesOracle:
    def test_terms_match_geometric_series(self):
        """lambda_l * delta_l^2 = (1/(2l)) ((d-1)/(k-1))^l for every l."""
        for k in (4, 5, 8):
            for d in (2, 3):
                if d >= k:
                    continue
                for l in range(1, 20):
                    term = lambda_l(l, k, d) * delta_l(l, k) ** 2
                    oracle = (1.0 / (2 * l)) * ((d - 1) / (k - 1)) ** l
                    assert math.isclose(term, oracle, rel_tol=1e-12)


class TestHessianType:
    def test_symmetry_and_definite(self):
        h = Hessian2(h11=2.0, h12=-1.0, h22=3.0)
        assert h.det == 5.0
        assert h.positive_definite
