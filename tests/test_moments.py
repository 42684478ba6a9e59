"""Thresholds, free-entropy densities, and exact moment identities."""

import math
from fractions import Fraction

import numpy as np
import pytest

from occuthresh.errors import ParameterError
from occuthresh.instances import Params
from occuthresh.moments import (
    Hessian2,
    OverlapPoint,
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
from occuthresh.cycles import delta_l, lambda_l, mu_l


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

    def test_fractional_quota_flag(self):
        assert second_moment_exact_ratio(Params(n=3, d=4, k=4, r=2)).is_zero

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
