"""Contraction coefficients, the occupation channel, and the k=4 certificate."""

import itertools
import math

import numpy as np
import pytest

from occuthresh import sdpi
from occuthresh.errors import (
    CapacityError,
    CertificateError,
    ContractViolation,
    ParameterError,
    ParseError,
)
from occuthresh.moments import (
    OverlapPoint,
    input_count_pmf,
    input_kl,
    input_pmf_star,
    output_count_pmf,
    output_kl,
    w_star,
)
from occuthresh.numerics import Channel, Pmf, find_root
from occuthresh.sdpi import (
    certify_k4_contraction,
    conjectured_contraction,
    contraction_coefficient,
    divergence_ratio,
    format_certificate,
    format_channel,
    k4_logsum_bound,
    k4_min_input_divergence,
    k4_output_divergence,
    k4_quadratic_bound,
    k4_ratio_envelope,
    minimizing_w2,
    occupation_channel,
    occupation_contraction,
    parse_channel,
)
from tests.oracles import (
    chi2_coefficient,
    dobrushin_coefficient,
    occupation_line_reference,
    pattern_search_reference,
    polar_grid_reference,
)

# exp/log overflow in the tilt search must fail, not warn, under any pytest configuration
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# Depth-2000 grid oracle for BSC(0.1) with uniform reference, pinned once.
BSC_GOLDEN = 0.639999961600007


def random_count_points(count, seed):
    rng = np.random.default_rng(seed)
    while count > 0:
        w1 = float(rng.uniform(0, 1))
        w2 = float(rng.uniform(max(0.0, 2 * w1 - 1.0), w1))
        yield OverlapPoint(w1, w2)
        count -= 1


class TestOccupationChannel:
    def test_matrix_structure(self):
        """The output_count_pmf columns give the bits of the literal matrix."""
        for k in range(4, 2001):
            p_star, channel = occupation_channel(k)
            ws = 2.0 / k
            expected = np.array(
                [
                    [1.0 - 2.0 * ws, 1.0 - 1.5 * ws, 1.0 - ws],
                    [2.0 * ws, ws, 0.0],
                    [0.0, 0.5 * ws, ws],
                ]
            )
            assert channel.matrix.tobytes() == np.asfortranarray(expected).tobytes(), k
            assert p_star.weights.tobytes() == input_pmf_star(k).tobytes(), k
            np.testing.assert_allclose(channel.matrix.sum(axis=0), 1.0, atol=1e-12)

    def test_matrix_action_matches_closed_form(self):
        """q(w) = W p(w) reproduces the closed-form output pmf on random w."""
        for k in (4, 5, 7):
            _, channel = occupation_channel(k)
            worst = 0.0
            for w in random_count_points(1000, seed=k):
                via_matrix = channel.matrix @ input_count_pmf(w)
                closed = output_count_pmf(w.w1, k)
                worst = max(worst, float(np.max(np.abs(via_matrix - closed))))
            assert worst < 1e-12

    def test_reference_outputs(self):
        p_star, channel = occupation_channel(4)
        np.testing.assert_allclose(
            channel.apply(p_star).weights, output_count_pmf(0.5, 4), atol=1e-15
        )

    def test_small_k_rejected(self):
        with pytest.raises(ParameterError):
            occupation_channel(3)

    @pytest.mark.parametrize("k", range(4, 13))
    def test_chi2_coefficient_is_one_over_k_minus_1(self, k):
        """Second singular value^2 of diag(q*)^-1/2 W diag(p*)^1/2 equals 1/(k-1)."""
        p_star, channel = occupation_channel(k)
        scaled = (
            channel.matrix
            * np.sqrt(p_star.weights)[None, :]
            / np.sqrt(channel.apply(p_star).weights)[:, None]
        )
        sigma = np.linalg.svd(scaled, compute_uv=False)
        assert abs(sigma[1] ** 2 - 1.0 / (k - 1)) <= 1e-15


class TestDivergenceRatio:
    def test_corner_analytic_value(self):
        for k in range(4, 9):
            w1s, w2s = w_star(k)
            expected = (
                -(w1s * math.log(w1s) + (1 - w1s) * math.log(1 - w1s)) / -math.log(w2s)
            )
            got = divergence_ratio(OverlapPoint(1.0, 1.0), k)
            assert math.isclose(got, expected, rel_tol=1e-12)

    def test_corner_k4(self):
        got = divergence_ratio(OverlapPoint(1.0, 1.0), 4)
        assert math.isclose(got, math.log(2) / math.log(6), rel_tol=1e-12)

    def test_opposite_corner_k4(self):
        got = divergence_ratio(OverlapPoint(0.0, 0.0), 4)
        assert math.isclose(got, math.log(2) / math.log(6), rel_tol=1e-12)

    def test_boundary_crossover_value(self):
        # At the crossover both lower-bound ratios equal ~0.380; the true
        # ratio at the minimizing w2 sits strictly below them because the
        # bounds are not tight there.
        w_bar = find_root(
            lambda x: k4_quadratic_bound(x) - k4_logsum_bound(x), 0.05, 0.2, 1e-12
        )
        bound_ratio = k4_output_divergence(w_bar) / k4_quadratic_bound(w_bar)
        assert abs(bound_ratio - 0.380) <= 1e-3
        w = OverlapPoint(w_bar, minimizing_w2(4, w_bar))
        true_ratio = divergence_ratio(w, 4)
        assert true_ratio <= bound_ratio
        assert math.isclose(true_ratio, k4_ratio_envelope(w_bar), rel_tol=1e-10)

    def test_undefined_at_reference(self):
        with pytest.raises(ParameterError):
            divergence_ratio(OverlapPoint(*w_star(4)), 4)

    def test_zero_when_only_w2_moves(self):
        w1s, w2s = w_star(4)
        assert divergence_ratio(OverlapPoint(w1s, w2s / 2), 4) == 0.0

    def test_finite_along_diagonal_approach(self):
        """Ratio stays finite approaching w*; values recorded, limit unasserted."""
        w1s, w2s = w_star(4)
        values = [
            divergence_ratio(OverlapPoint(w1s + t, w2s + t), 4)
            for t in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
        ]
        assert all(math.isfinite(v) for v in values)
        assert all(0.0 < v < 1.0 for v in values)
        steps = [b - a for a, b in zip(values, values[1:])]
        assert all(s <= 0 for s in steps) or all(s >= 0 for s in steps)


class TestContractionCoefficient:
    def test_identity_channel(self):
        value, _ = contraction_coefficient(
            Pmf(np.array([0.3, 0.3, 0.4])), Channel(np.eye(3)), grid_depth=50
        )
        assert abs(value - 1.0) <= 1e-9

    def test_constant_channel(self):
        col = np.array([[0.2], [0.5], [0.3]])
        value, _ = contraction_coefficient(
            Pmf(np.ones(3) / 3), Channel(np.tile(col, (1, 3))), grid_depth=50
        )
        assert abs(value) <= 1e-12

    def test_binary_symmetric_golden(self):
        w = Channel(np.array([[0.9, 0.1], [0.1, 0.9]]))
        value, argmax = contraction_coefficient(Pmf(np.array([0.5, 0.5])), w, grid_depth=200)
        assert abs(value - BSC_GOLDEN) <= 1e-3
        assert abs(float(argmax.weights[0]) - 0.5) < 0.05  # supremum approached at p*

    def test_dpi_sanity_random_channels(self):
        """Coefficients of random channels lie between their chi-square and Dobrushin bounds."""
        rng = np.random.default_rng(1234)
        for trial in range(100):
            n_in = int(rng.integers(2, 4))
            n_out = int(rng.integers(2, 4))
            matrix = rng.dirichlet(np.ones(n_out), size=n_in).T
            p_star = rng.dirichlet(np.ones(n_in) * 5.0)  # concentrated away from edges
            value, _ = contraction_coefficient(Pmf(p_star), Channel(matrix), grid_depth=40)
            lo, hi = chi2_coefficient(matrix, p_star), dobrushin_coefficient(matrix)
            assert lo * (1 - 1e-9) <= value <= hi * (1 + 1e-9), trial

    def test_grid_depth_validated(self):
        with pytest.raises(ParameterError):
            contraction_coefficient(Pmf(np.array([0.5, 0.5])), Channel(np.eye(2)), grid_depth=1)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            contraction_coefficient(Pmf(np.array([0.5, 0.5])), Channel(np.eye(3)))

    def test_reference_needs_full_support(self):
        with pytest.raises(ParameterError, match=r"full support, but p_star\[1\] = 0"):
            contraction_coefficient(Pmf(np.array([1.0, 0.0, 0.0])), Channel(np.eye(3)))

    @pytest.mark.parametrize("n_in", [2, 3])
    def test_result_independent_of_matrix_layout(self, n_in):
        """Row- and column-major copies of a channel give the same bits."""
        rng = np.random.default_rng(33)
        for trial in range(10):
            p_star, channel = _random_channel(rng, n_in)
            (value_c, arg_c), (value_f, arg_f) = [
                contraction_coefficient(
                    p_star, Channel(np.array(channel.matrix, order=order)), grid_depth=30
                )
                for order in ("C", "F")
            ]
            assert value_c.hex() == value_f.hex(), trial
            assert arg_c.weights.tobytes() == arg_f.weights.tobytes(), trial


def _random_channel(rng, n_in, n_out=3):
    matrix = rng.dirichlet(np.ones(n_out), size=n_in).T
    return Pmf(rng.dirichlet(np.ones(n_in) * 4.0)), Channel(matrix)


class TestStreamedGrid:
    """The tilt grid is scored in blocks of at most ``_BLOCK_POINTS`` points."""

    @pytest.mark.parametrize("directions", [3, 5])
    def test_block_size_leaves_results_unchanged(self, monkeypatch, directions):
        rng = np.random.default_rng(21)
        cases = [(Pmf(np.array([0.3, 0.3, 0.4])), Channel(np.eye(3)), 20)]  # all ratios tie at 1
        for n_in in (2, 3, 3, 4, 4):
            cases.append((*_random_channel(rng, n_in), 12))
        expected = [contraction_coefficient(p, w, grid_depth=d) for p, w, d in cases]
        for (p, w, d), (value, argmax) in zip(cases, expected):
            # a direction's d radii and face limit never split across blocks
            monkeypatch.setattr(sdpi, "_BLOCK_POINTS", directions * (d + 1))
            got, got_arg = contraction_coefficient(p, w, grid_depth=d)
            assert got.hex() == value.hex()
            assert got_arg.weights.tobytes() == argmax.weights.tobytes()

    @pytest.mark.parametrize("rows", [1, 2, 3, 163, 2**15])
    @pytest.mark.parametrize("m", range(1, 7))
    def test_directions_pair_each_point_with_its_negation(self, m, rows):
        """Every shell point once, next to its negation in the same block, in an order set by m alone."""
        reach = 1
        while m > 1 and sdpi._shell(m, reach + 1) <= sdpi._DIRECTIONS:
            reach += 1
        blocks = list(sdpi._directions(m, reach, rows))
        assert all(0 < len(b) <= max(rows, 2) and len(b) % 2 == 0 for b in blocks)
        assert all(np.array_equal(b[1::2], -b[0::2]) for b in blocks)
        us = np.concatenate(blocks)
        assert us.tobytes() == np.concatenate(list(sdpi._directions(m, reach, 2**15))).tobytes()
        vs = np.rint(us / np.abs(us).max(axis=1, keepdims=True) * reach).astype(int)
        shell = {v for v in itertools.product(range(-reach, reach + 1), repeat=m) if max(map(abs, v)) == reach}
        assert len(vs) == len(shell) == sdpi._shell(m, reach)
        assert set(map(tuple, vs.tolist())) == shell
        np.testing.assert_allclose(us, vs / np.linalg.norm(vs, axis=1, keepdims=True), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_winner_in_a_later_block_raises(self, monkeypatch, bad):
        monkeypatch.setattr(sdpi, "_BLOCK_POINTS", 22)  # two directions of 11 points per block
        ratio_rows = sdpi._ratio_rows
        calls = []

        def poisoned(ps, *args):
            ratios = ratio_rows(ps, *args)
            calls.append(len(ps))
            if len(calls) == 3:
                ratios[-1] = bad
            return ratios

        monkeypatch.setattr(sdpi, "_ratio_rows", poisoned)
        with pytest.raises(ParameterError, match=f"non-finite ratio {bad!r} at a grid point"):
            contraction_coefficient(Pmf(np.array([0.2, 0.3, 0.5])), Channel(np.eye(3)), grid_depth=10)
        assert len(calls) == 3

    def test_oversized_grid_raises_before_building(self, monkeypatch):
        p_star, channel = _random_channel(np.random.default_rng(3), 4)
        points = (81**2 - 79**2) * 21  # rank 3: 320 directions on the plane, 20 radii and a face each
        monkeypatch.setattr(sdpi, "_GRID_POINTS", points)
        contraction_coefficient(p_star, channel, grid_depth=20)

        def unreached(*args):
            raise AssertionError("grid built")

        monkeypatch.setattr(sdpi, "_GRID_POINTS", points - 1)
        monkeypatch.setattr(sdpi, "_directions", unreached)
        with pytest.raises(CapacityError, match=f"has {points} points, over the limit of {points - 1}"):
            contraction_coefficient(p_star, channel, grid_depth=20)

    def test_all_excluded_grid_raises(self):
        # A single input: the one pmf is p* itself, excluded, and rho^2 does not exist.
        with pytest.raises(ParameterError, match="no admissible grid point"):
            contraction_coefficient(Pmf(np.array([1.0])), Channel(np.array([[0.5], [0.5]])))


class TestTiltSearch:
    # perfbench's seed-5 near-p* channel, _screened(default_rng(5), 3, 2, True, 40):
    # grid+refine at depth 100 gave 0.11058353283510719, below its own rho^2.
    SEED5_MATRIX = [
        [0.3941879012079973, 0.18213919216280056, 0.08324908028939831],
        [0.6058120987920027, 0.8178608078371995, 0.9167509197106017],
    ]
    SEED5_P_STAR = [0.32320688863641994, 0.2389942944189792, 0.43779881694460093]

    def test_seed5_channel_reaches_the_supremum(self):
        mpmath = pytest.importorskip("mpmath")
        matrix, p_star = np.array(self.SEED5_MATRIX), np.array(self.SEED5_P_STAR)
        value, argmax = contraction_coefficient(Pmf(p_star), Channel(matrix), grid_depth=100)
        assert value >= 0.1106151888
        assert value >= chi2_coefficient(matrix, p_star)
        with mpmath.workdps(50):
            p = [mpmath.mpf(float(x)) for x in argmax.weights]
            ref = [mpmath.mpf(float(x)) for x in p_star]
            w = [[mpmath.mpf(float(x)) for x in row] for row in matrix]

            def kl(a, b):
                return mpmath.fsum(x * mpmath.log(x / y) for x, y in zip(a, b) if x > 0)

            def out(v):
                return [mpmath.fsum(r * x for r, x in zip(row, v)) for row in w]

            exact = kl(out(p), out(ref)) / kl(p, ref)
            assert abs(value - exact) <= 1e-9 * exact

    @pytest.mark.parametrize("seed", range(20))
    def test_against_polar_grid_and_bracket(self, seed):
        rng = np.random.default_rng(5000 + seed)
        n_in, n_out = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        matrix = rng.dirichlet(np.ones(n_out), size=n_in).T
        p_star = rng.dirichlet(np.full(n_in, 3.0))
        value, _ = contraction_coefficient(Pmf(p_star), Channel(matrix), grid_depth=40)
        oracle = polar_grid_reference(matrix, p_star, 3000 if n_in == 4 else 720, 120)
        assert value >= oracle * (1 - 1e-12)
        lo, hi = chi2_coefficient(matrix, p_star), dobrushin_coefficient(matrix)
        assert lo * (1 - 1e-12) <= value <= hi * (1 + 1e-9)

    def test_rank_deficient_channel(self):
        """Two equal columns: the tilts move along one line, and never split those two inputs."""
        matrix = np.array([[0.7, 0.2, 0.2], [0.1, 0.5, 0.5], [0.2, 0.3, 0.3]])
        p_star = np.array([0.5, 0.2, 0.3])
        assert np.linalg.matrix_rank(matrix) == 2
        value, argmax = contraction_coefficient(Pmf(p_star), Channel(matrix), grid_depth=40)
        p = argmax.weights
        assert math.isclose(p[1] / p[2], p_star[1] / p_star[2], rel_tol=1e-12)
        assert value >= polar_grid_reference(matrix, p_star, 720, 120) * (1 - 1e-12)
        lo, hi = chi2_coefficient(matrix, p_star), dobrushin_coefficient(matrix)
        assert lo * (1 - 1e-12) <= value <= hi * (1 + 1e-9)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_direction_count_does_not_grow_with_rank(self, n, monkeypatch):
        """At most 320 directions for any m >= 2, and never fewer than 2m, until 3^m - 1 > 320."""
        counts = []

        def counted(*args):
            for us in directions(*args):
                counts.append(len(us))
                yield us

        directions = sdpi._directions
        monkeypatch.setattr(sdpi, "_directions", counted)
        rng = np.random.default_rng(700 + n)
        matrix = rng.dirichlet(np.ones(n), size=n).T
        contraction_coefficient(Pmf(np.full(n, 1.0 / n)), Channel(matrix), grid_depth=20)
        m = n - 1
        assert 2 * m <= sum(counts) <= max(sdpi._DIRECTIONS, 3**m - 1)

    @pytest.mark.parametrize("matrix", [np.tile([[0.4], [0.6]], (1, 3)), np.ones((1, 3))])
    def test_chi_square_limit_wins_without_tilts(self, matrix):
        """A constant channel has rank 1, no tilt and rho^2 = 0: the argmax is p* itself."""
        p_star = np.array([0.2, 0.3, 0.5])
        value, argmax = contraction_coefficient(Pmf(p_star), Channel(matrix), grid_depth=20)
        assert abs(value) <= 1e-12
        assert argmax.weights.tobytes() == p_star.tobytes()


class TestBatchedRefine:
    """The tilt refine scores, in one batch, its 2m moves at every step from the
    current one down to ``_STEP_TOL``: the halvings that would follow a failure."""

    # perfbench's near-p* channel (CLIFF_SEED = 8): the simplex climb from its
    # grid winner took thousands of step-sized moves towards p*.
    CLIFF_MATRIX = [
        [0.2710405416979102, 0.14149395982112772, 0.7276629015051393],
        [0.7289594583020899, 0.8585060401788723, 0.2723370984948606],
    ]
    CLIFF_P_STAR = [0.1044250997193062, 0.4746220353054952, 0.4209528649751986]

    @staticmethod
    def _recorded_batches(monkeypatch):
        ratio_rows, batches = sdpi._ratio_rows, []

        def recording(ps, *args):
            batches.append(ps.copy())
            return ratio_rows(ps, *args)

        monkeypatch.setattr(sdpi, "_ratio_rows", recording)
        return batches

    @staticmethod
    def _repeats(batches):
        return sum(
            a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(batches, batches[1:])
        )

    def test_cliff_channel_evaluates_each_batch_once(self, monkeypatch):
        batches = self._recorded_batches(monkeypatch)
        p_star, channel = Pmf(np.array(self.CLIFF_P_STAR)), Channel(np.array(self.CLIFF_MATRIX))
        contraction_coefficient(p_star, channel, grid_depth=100)
        moves = 2  # two outputs: rank 2, so m = 1 and the moves are +-step
        assert len(batches) < 20  # one ladder block for both directions, then the refine's batches
        assert len(batches[0]) == 2 * 101
        assert all(len(b) > 0 and len(b) % moves == 0 for b in batches[1:])
        assert self._repeats(batches) == 0

    def test_matches_one_step_reference(self, monkeypatch):
        """From the same start, the batched refine returns the one-step search's bits."""
        refine, calls = sdpi._refine, []

        def recording(*args):
            calls.append((args, refine(*args)))
            return calls[-1][1]

        monkeypatch.setattr(sdpi, "_refine", recording)
        seed5 = (TestTiltSearch.SEED5_P_STAR, TestTiltSearch.SEED5_MATRIX)
        for p_star, matrix in [(self.CLIFF_P_STAR, self.CLIFF_MATRIX), seed5]:
            contraction_coefficient(Pmf(np.array(p_star)), Channel(np.array(matrix)), grid_depth=100)
        rng = np.random.default_rng(808)
        for trial in range(32):
            p_star, channel = _random_channel(rng, 2 + trial % 4, 2 + trial % 3)
            contraction_coefficient(p_star, channel, grid_depth=30)
        assert len(calls) >= 32
        for trial, (args, (p, value)) in enumerate(calls):
            want_p, want_value = pattern_search_reference(*args)
            assert value.hex() == want_value.hex(), trial
            assert p.tobytes() == want_p.tobytes(), trial

    @pytest.mark.parametrize("n_in", range(2, 11))
    def test_ratio_rows_do_not_depend_on_batch_or_layout(self, n_in):
        """A row's ratio is the same scored in a large batch, in a small one, C or F order.

        Both the blocks and the refine's levels lean on this.  The small
        batch is the row twice, the fewest rows the search scores: one row
        would take BLAS's matrix-vector product, whose bits differ.  From 8
        inputs numpy sums a C-order row pairwise and an F-order block column
        by column, so there the bits may differ, by at most 4e-15 relative:
        each divergence is a sum of at most ten nonnegative terms.
        """
        rng = np.random.default_rng(900 + n_in)
        for trial in range(5):
            p_star, channel = _random_channel(rng, n_in, int(rng.integers(2, 6)))
            p, matrix = p_star.weights, channel.matrix
            args = (matrix, p, matrix @ p)
            basis = np.linalg.qr(rng.normal(size=(n_in, n_in - 1)))[0]
            lams = rng.normal(size=(40, n_in - 1)) * np.geomspace(1e-3, 10.0, 40)[:, None]
            ps = np.concatenate([sdpi._tilted(lams, basis, np.log(p)), rng.dirichlet(np.ones(n_in), 20)])
            block = sdpi._ratio_rows(np.asfortranarray(ps), *args)
            for got in (
                sdpi._ratio_rows(np.ascontiguousarray(ps), *args),
                [sdpi._ratio_rows(ps[[i, i]], *args)[0] for i in range(len(ps))],
                [sdpi._ratio_rows(np.asfortranarray(ps[[i, i]]), *args)[0] for i in range(len(ps))],
            ):
                got = np.asarray(got)
                if n_in < 8:
                    assert got.tobytes() == block.tobytes(), trial
                else:
                    assert np.all(np.abs(got - block) <= 4e-15 * block), trial

    @pytest.mark.parametrize("n_in", [2, 3, 4])
    def test_no_batch_is_evaluated_twice_in_a_row(self, monkeypatch, n_in):
        batches = self._recorded_batches(monkeypatch)
        rng = np.random.default_rng(600 + n_in)
        for _ in range(4):
            contraction_coefficient(*_random_channel(rng, n_in), grid_depth=20)
        assert self._repeats(batches) == 0


class TestOccupationContraction:
    def test_k4_supremum_at_corner(self):
        res = occupation_contraction(4)
        assert abs(res.sup - math.log(2) / math.log(6)) <= 1e-4
        assert abs(res.argmax.w1 - 1.0) <= 1e-3
        assert abs(res.argmax.w2 - 1.0) <= 1e-3

    def test_k5_report(self):
        res = occupation_contraction(5, grid_depth=120)
        expected = (-(0.4 * math.log(0.4) + 0.6 * math.log(0.6))) / math.log(10)
        assert math.isclose(res.conjectured, expected, rel_tol=1e-12)
        assert math.isfinite(res.gap)

    def test_feasibility_floor(self):
        for k in (4, 5, 6):
            res = occupation_contraction(k, grid_depth=80)
            assert res.sup >= res.conjectured - 1e-9
            assert res.sup >= 1.0 / (k - 1)  # the chi-square coefficient bounds eta_KL below

    @pytest.mark.parametrize(
        "k,depth",
        [(k, depth) for k in range(4, 13) for depth in (2, 7, 60, 120, 200)]
        + [(k, depth) for k in (41, 257, 1000) for depth in (200, 40000)],
    )
    def test_matches_simplex_search(self, k, depth):
        """The tilt search gives the bits of the line over w1 alone: both end at the corner."""
        res = occupation_contraction(k, grid_depth=depth)
        sup, arg = occupation_line_reference(k, depth)
        assert res.sup.hex() == sup.hex()
        assert res.argmax == arg == OverlapPoint(1.0, 1.0)

    def test_ties_keep_first_point_scored(self, monkeypatch):
        """Equal scores keep the search's first point, the first radius along the first direction."""
        scored = []

        def flat(ps, *args):
            scored.append(ps.copy())
            return np.ones(len(ps))

        monkeypatch.setattr(sdpi, "_ratio_rows", flat)
        res = occupation_contraction(5, grid_depth=20)
        p = scored[0][0]
        assert res.argmax == OverlapPoint(float(p[1] / 2.0 + p[2]), float(p[2]))
        assert res.argmax.w1 < 1.0

    @pytest.mark.parametrize("depth", [1, 0, -3])
    def test_search_parameters_validated(self, depth):
        with pytest.raises(ParameterError, match=f"need grid_depth >= 2, got {depth}"):
            occupation_contraction(5, grid_depth=depth)


class TestMinimizer:
    @pytest.mark.parametrize("k", range(4, 11))
    def test_stationarity(self, k):
        """p00 p11 = 4c p01^2 with c = (k-3)/(8(k-2)) at the minimizing w2 = p11."""
        c = (k - 3) / (8 * (k - 2))
        for w1 in np.linspace(0.0, 1.0, 201):
            p11 = minimizing_w2(k, float(w1))
            p01, p00 = w1 - p11, 1.0 - 2.0 * w1 + p11
            assert max(0.0, 2.0 * w1 - 1.0) - 1e-15 <= p11 <= w1
            assert abs(p00 * p11 - 4 * c * p01 * p01) <= 1e-12, w1

    @pytest.mark.parametrize("k", range(4, 11))
    def test_matches_brute_force_scan(self, k):
        """A 401-point scan of input_kl over w2 brackets OverlapPoint(w1, minimizing_w2)."""
        for w1 in (0.03, 0.2, 0.5, 0.71, 0.96):
            lo, hi = max(0.0, 2 * w1 - 1.0), w1
            scan = np.linspace(lo, hi, 401)
            values = [input_kl(OverlapPoint(w1, float(w2)), k) for w2 in scan]
            i = int(np.argmin(values))
            best = minimizing_w2(k, w1)
            assert abs(best - scan[i]) <= scan[1] - scan[0]
            assert input_kl(OverlapPoint(w1, best), k) <= values[i] + 1e-15

    @pytest.mark.parametrize("k", range(4, 11))
    def test_cells_agree_with_minimizing_w2(self, k):
        w1 = np.linspace(0.0, 1.0, 101)
        p11, p00 = sdpi._minimizing_cells(k, w1)
        assert minimizing_w2(k, w1).tobytes() == p11.tobytes()
        np.testing.assert_allclose(p00, 1.0 - 2.0 * w1 + p11, rtol=0, atol=1e-15)

    def test_small_k_rejected(self):
        with pytest.raises(ParameterError):
            minimizing_w2(3, 0.5)


class TestK4Curves:
    def test_minimizer_at_center(self):
        assert math.isclose(minimizing_w2(4, 0.5), 1.0 / 6.0, rel_tol=1e-14)

    def test_logsum_bound_origin(self):
        assert math.isclose(k4_logsum_bound(0.0), math.log(6), rel_tol=1e-14)

    def test_output_divergence_origin(self):
        assert math.isclose(k4_output_divergence(0.0), math.log(2), rel_tol=1e-14)
        ratio = k4_output_divergence(0.0) / k4_logsum_bound(0.0)
        assert math.isclose(ratio, conjectured_contraction(4), rel_tol=1e-12)

    @pytest.mark.parametrize("w1", [0.5 + sign * 10.0**-j for j in range(1, 13) for sign in (1, -1)])
    def test_output_divergence_accurate_near_half(self, w1):
        """Relative error at most 1e-13 against 40 digits where the divergence vanishes."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            x = mpmath.mpf(w1)
            exact = x * mpmath.log(2 * x) + (1 - x) * mpmath.log(2 * (1 - x))
            assert abs((k4_output_divergence(w1) - exact) / exact) <= 1e-13

    def test_bounds_cross_at_w_bar(self):
        w_bar = find_root(
            lambda x: k4_quadratic_bound(x) - k4_logsum_bound(x), 0.05, 0.2, 1e-13
        )
        assert abs(k4_quadratic_bound(w_bar) - k4_logsum_bound(w_bar)) < 1e-10
        assert abs(k4_quadratic_bound(w_bar) - 0.92052) <= 1e-4

    def test_input_divergence_stationary_at_minimizer(self):
        """Finite differences of the input divergence vanish at the inner minimizer."""
        h = 1e-7
        for w1 in np.linspace(0.05, 0.95, 100):
            w1 = float(w1)
            w2 = minimizing_w2(4, w1)
            deriv = (
                input_kl(OverlapPoint(w1, w2 + h), 4) - input_kl(OverlapPoint(w1, w2 - h), 4)
            ) / (2 * h)
            assert abs(deriv) <= 1e-8

    def test_min_divergence_consistent_with_input(self):
        for w1 in np.linspace(0.02, 0.98, 25):
            direct = input_kl(OverlapPoint(float(w1), minimizing_w2(4, float(w1))), 4)
            assert math.isclose(
                k4_min_input_divergence(float(w1)), direct, rel_tol=1e-9, abs_tol=1e-12
            )

    def test_envelope_center(self):
        assert k4_ratio_envelope(0.5) == 1.0 / 3.0

    def test_envelope_grid_max_at_endpoints(self):
        xs = np.linspace(0.0, 1.0, 2001)
        vals = np.array([k4_ratio_envelope(float(x)) for x in xs])
        i = int(np.argmax(vals))
        assert i in (0, len(xs) - 1)
        assert math.isclose(vals[i], 0.386853, abs_tol=1e-6)

    def test_envelope_agrees_with_divergence_ratio(self):
        """Curve route equals the generic ratio at the minimizing w2."""
        for w1 in (0.1, 0.25, 0.4, 0.75):
            w = OverlapPoint(w1, minimizing_w2(4, w1))
            assert math.isclose(
                k4_ratio_envelope(w1), divergence_ratio(w, 4), rel_tol=1e-10
            )

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            k4_output_divergence(1.2)
        with pytest.raises(ParameterError):
            k4_logsum_bound(0.45)

    @pytest.mark.parametrize("w1, w2", [(-0.1, 0.0), (1.1, 0.0), (0.3, -0.01), (0.3, 0.31), (0.7, 0.31)])
    def test_input_divergence_domain(self, w1, w2):
        """Cell points (w1, p01) outside 0 <= p01 <= min(w1, 1 - w1) have no input divergence."""
        with pytest.raises(ParameterError, match="overlap point"):
            input_kl(OverlapPoint(w1, w1 - w2), 4)

    def test_cell_curves_match_count_divergences(self):
        """The w1 curves give the output divergence and bound the input one from below."""
        for w in random_count_points(1000, seed=99):
            assert k4_min_input_divergence(w.w1) <= input_kl(w, 4) + 1e-12
            assert abs(k4_output_divergence(w.w1) - output_kl(w, 4)) < 1e-12

    @pytest.mark.parametrize(
        "curve, hi",
        [
            (k4_output_divergence, 1.0),
            (k4_min_input_divergence, 1.0),
            (k4_quadratic_bound, 1.0),
            (k4_logsum_bound, 5 / 12),
            (k4_ratio_envelope, 1.0),
            (lambda w1: minimizing_w2(4, w1), 1.0),
        ],
    )
    def test_scalar_and_array_agree(self, curve, hi):
        """A scalar gives a Python float, an array an array, with the same bits."""
        xs = np.linspace(0.0, hi, 201)
        values = curve(xs)
        assert isinstance(values, np.ndarray) and values.shape == xs.shape
        for x, v in zip(xs, values):
            got = curve(float(x))
            assert type(got) is float
            assert got.hex() == float(v).hex(), x


class TestCertificate:
    def test_default_run_passes(self):
        cert = certify_k4_contraction()
        assert 0.108 < cert.w_bar < 0.1087
        assert abs(cert.w_bar - 0.10831) < 1e-5
        assert cert.w_bar < cert.w_0 < 5 / 12
        assert cert.max_ratio_found <= cert.conjectured_d_star + 1e-6
        assert abs(cert.ratio_at_w_bar - 0.380) <= 1e-3
        assert cert.grid_resolution == 20001
        expected_margins = {
            "dmin_minus_dplus_min",
            "dmin_minus_dminus_min",
            "rplus_max_increase",
            "f_at_origin",
            "f_at_w_bar",
            "grid_max_headroom",
        }
        assert set(cert.margins) == expected_margins
        assert cert.margins["f_at_w_bar"] < 0  # strictly below zero between the roots
        assert cert.margins["grid_max_headroom"] >= 0

    @pytest.mark.parametrize("root_tol", [1e-10, 1e-11, 1e-12, 1e-13, 1e-300])
    @pytest.mark.parametrize("grid_points", [10**4, 20001, 100001, 1000001])
    def test_passes_at_any_resolution_and_root_tol(self, grid_points, root_tol):
        """The verdict does not depend on the certificate's own numerical settings."""
        cert = certify_k4_contraction(grid_points=grid_points, root_tol=root_tol)
        assert cert.margins["rplus_max_increase"] < 0

    def test_grid_floor_enforced(self):
        with pytest.raises(ParameterError):
            certify_k4_contraction(grid_points=5000)

    def test_certificate_error_fields(self):
        err = CertificateError("some_check", 0.25, "went wrong")
        assert err.check == "some_check"
        assert err.witness == 0.25

    def test_formatting_contains_all_fields(self):
        cert = certify_k4_contraction()
        text = format_certificate(cert)
        for key in ("w_bar", "w_0", "grid_resolution", "max_ratio_found",
                    "conjectured_d_star", "ratio_at_w_bar", "margin."):
            assert key in text


class TestChannelFiles:
    def test_round_trip(self):
        w = Channel(np.array([[0.9, 0.2], [0.1, 0.8]]))
        p = Pmf(np.array([0.25, 0.75]))
        text = format_channel(p, w)
        p2, w2 = parse_channel(text)
        np.testing.assert_allclose(p2.weights, p.weights, atol=0)
        np.testing.assert_allclose(w2.matrix, w.matrix, atol=0)

    def test_round_trip_keeps_occupation_bits(self):
        occ = occupation_channel(5)
        p_star, channel = parse_channel(format_channel(*occ))
        value, argmax = contraction_coefficient(*occ, grid_depth=60)
        back, back_arg = contraction_coefficient(p_star, channel, grid_depth=60)
        assert back.hex() == value.hex()
        assert back_arg.weights.tobytes() == argmax.weights.tobytes()

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_channel("n_in = 2\nn_out = 2\nmatrix = [1, 0]\np_star = [0.5, 0.5]\n")
        with pytest.raises(ParseError):
            parse_channel("n_out = 2\n")
        with pytest.raises(ParseError, match="line 2: could not parse value for 'n_out'"):
            parse_channel("n_in = 2\nn_out = two\n")
        with pytest.raises(ParseError, match=r"line 3: missing fields \['matrix', 'p_star'\]"):
            parse_channel("n_in = 2\nn_out = 2\n")
        with pytest.raises(ParseError, match="line 2: n_out must be >= 1, got -1"):
            parse_channel("n_in = 2\nn_out = -1\nmatrix = []\np_star = []\n")

    @pytest.mark.parametrize(
        "matrix, p_star, message",
        [
            ("[1, 0]", "[0.5, 0.5]", "line 3: matrix needs 4 entries, got 2"),
            ("[1, 0, 0, 1]", "[0.5, 0.25, 0.25]", "line 6: p_star needs 2 entries, got 3"),
        ],
    )
    def test_size_errors_name_their_own_line(self, matrix, p_star, message):
        text = f"n_in = 2\nn_out = 2\nmatrix = {matrix}\n\n# comment\np_star = {p_star}\n"
        with pytest.raises(ParseError, match=message):
            parse_channel(text)

    def test_comments_ignored(self):
        w = Channel(np.eye(2))
        p = Pmf(np.array([0.5, 0.5]))
        text = "# manifest: x = 1\n" + format_channel(p, w)
        p2, w2 = parse_channel(text)
        np.testing.assert_allclose(w2.matrix, np.eye(2))
