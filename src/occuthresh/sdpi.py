"""KL contraction coefficients and the complete k = 4 certificate.

The generic coefficient sup KL(Wp || Wp*) / KL(p || p*) is estimated by
``contraction_coefficient`` over exponential tilts of p*.  The
I-projection of p* onto {p' : Wp' = Wp} has the output of p and no more
input divergence, and it lies in the closure of the tilts
p_lambda = softmax(ln p* + B lambda), B spanning the row space of W
less the constants (Csiszar, Ann. Probab. 1975).  So the supremum is
one over lambda in rank(W) - 1 dimensions, whatever the number of
inputs, and its limit at lambda = 0 is rho^2, the chi-square
coefficient.  One SVD gives the rank, rho^2, and a B orthonormal under
p* along the singular vectors at p*.

The occupation channel maps the shared-ones count of a constraint to
its output count; its columns are ``moments.output_count_pmf`` at
w1 = 0, 1/2 and 1.  The output depends on the overlap only through w1,
so the supremum is a search over w1 alone: at each w1 the candidate is
the overlap point of least input divergence, whose w2 (the fraction
p11 of constraints sharing both ones, as in ``OverlapPoint``) is
``minimizing_w2`` in closed form for every k.  Each candidate has the
largest ratio at its w1, so no simplex move from it can do better than
the candidate at the w1 it lands on, and the search needs no refine.
The conjectured supremum sits at the degenerate corner w1 = 1.

The k = 4 functions certify, at grid resolution, that the conjectured
corner value really is the supremum.  All bound curves are closed
forms that take a scalar or an array of w1; the one numeric ingredient
is the crossover abscissa of the two lower bounds, computed by
bisection exactly as the certificate records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapacityError,
    CertificateError,
    ContractViolation,
    ParameterError,
    ParseError,
)
from .instances import read_fields
from .moments import (
    OverlapPoint,
    input_kl,
    input_pmf_star,
    output_count_pmf,
    output_kl,
    w_star,
)
from .numerics import Channel, Pmf, binary_entropy, find_root, kl_divergence_rows

_EXCLUSION_TV = 1e-9


def occupation_channel(k: int) -> tuple[Pmf, Channel]:
    """The 3x3 overlap channel for k and its reference input pmf p(w*).

    Input x (the shared-ones count in a constraint) is the overlap with
    w1 = x/2, and the output pmf is linear in w1, so column x is
    ``output_count_pmf(x/2, k)``.
    """
    if k < 4:
        raise ParameterError(f"occupation channel needs k >= 4, got {k}")
    columns = [output_count_pmf(w1, k) for w1 in (0.0, 0.5, 1.0)]
    return Pmf(input_pmf_star(k)), Channel(np.column_stack(columns))


def conjectured_contraction(k: int) -> float:
    """H(2/k) / (-ln(1/C(k,2))): the value attained at the degenerate corner."""
    if k < 4:
        raise ParameterError(f"need k >= 4, got {k}")
    w1s, w2s = w_star(k)
    return binary_entropy(w1s) / (-math.log(w2s))


def divergence_ratio(w: OverlapPoint, k: int) -> float:
    """KL(Q_w || Q*) / KL(P_w || P*); undefined (raises) exactly at w = w*."""
    denom = input_kl(w, k)
    if denom == 0.0:
        raise ParameterError(f"divergence ratio is 0/0 at the reference point w* (w={w})")
    return output_kl(w, k) / denom


_BLOCK_POINTS = 1 << 15  # tilt points scored per block, to bound memory
_GRID_POINTS = 2 * 10**8  # largest tilt grid scored, the scale of moments._EXACT_TERMS
_RADII = (1e-3, 20.0)  # first radius of each ladder, and its last times the spread of B u
_STEP_TOL = 1e-9  # the refine stops once its step falls below this
_DIRECTIONS = 320  # most directions scored when m >= 2, whatever m (reach 40 on a plane)


def _shell(m: int, reach: int) -> int:
    # the integer points v in m dimensions with max |v_i| = reach
    return (2 * reach + 1) ** m - (2 * reach - 1) ** m


def _ratio_rows(ps: np.ndarray, matrix: np.ndarray, p_star: np.ndarray, q_star: np.ndarray):
    numer = kl_divergence_rows(ps @ matrix.T, q_star)
    denom = kl_divergence_rows(ps, p_star)
    tv = 0.5 * np.abs(ps - p_star).sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = numer / denom
    ratios = np.where(denom == 0.0, -np.inf, ratios)
    return np.where(tv <= _EXCLUSION_TV, -np.inf, ratios)


def _tilted(lams: np.ndarray, basis: np.ndarray, log_p: np.ndarray) -> np.ndarray:
    # p_lambda = softmax(ln p* + B lambda), one row per row of ``lams``
    logits = log_p + lams @ basis.T
    logits -= logits.max(axis=1, keepdims=True)
    ps = np.exp(logits)
    return ps / ps.sum(axis=1, keepdims=True)


def _directions(m: int, reach: int, rows: int):
    """Yield v / |v| for the integer v with max |v_i| = ``reach``, at most ``rows`` per block.

    The points whose first coordinate of size ``reach`` is v_a come
    together: v_i lies strictly inside (-reach, reach) for i < a and
    anywhere in [-reach, reach] for i > a, so each point comes once.
    """
    for a in range(m):
        sides = [2 * reach - 1] * a + [2 * reach + 1] * (m - 1 - a)
        count = math.prod(sides)
        for sign in (reach, -reach):
            for start in range(0, count, rows):
                index = np.arange(start, min(start + rows, count))
                digits = np.unravel_index(index, sides) if sides else ()
                rest = [d - s // 2 for d, s in zip(digits, sides)]
                v = np.column_stack(rest[:a] + [np.full(index.size, sign)] + rest[a:])
                yield v / np.linalg.norm(v, axis=1, keepdims=True)


def _refine(lam, p, value, step, basis, log_p, args):
    # Pattern search: the 2m moves +-step e_i in one batch, the first best
    # strict improvement taken; the step grows by 1.5 after a success and
    # halves after a failure.
    moves = np.concatenate([np.eye(lam.size), -np.eye(lam.size)])
    while step >= _STEP_TOL:
        lams = lam + step * moves
        ps = _tilted(lams, basis, log_p)
        ratios = _ratio_rows(ps, *args)
        i = int(np.argmax(ratios))
        if ratios[i] > value:
            lam, p, value = lams[i], ps[i], float(ratios[i])
            step *= 1.5
        else:
            step *= 0.5
    return p, value


def contraction_coefficient(
    p_star: Pmf,
    channel: Channel,
    grid_depth: int = 200,
) -> tuple[float, Pmf]:
    """Estimate d*(P*, W) = sup KL(Wp||Wp*)/KL(p||p*) over p != p*.

    Searches the tilts p_lambda of the module docstring.  The directions
    are v / |v| for the integer points v with max |v_i| = D, D the
    largest reach with at most ``_DIRECTIONS`` = 320 such points (D = 40
    in 2 dimensions, 3 in 3, 1 from 4 on, where from 6 on the 3^m - 1
    points of D = 1 exceed 320), so the count does not grow with m
    until there.  Along each, ``grid_depth`` (at most 2^15 - 1)
    geometric radii run from 1e-3 until B lambda spreads over 20, then
    comes the face limit, p* restricted to the inputs where B lambda is
    largest.  Points within 1e-9 total variation of p* are excluded, and ties keep
    the first point scored.  When the best point is a finite lambda, a
    pattern search refines it.  The result is the larger of that value
    and rho^2; when rho^2 is larger, the argmax is p* itself.  Points
    are scored in blocks of at most 2^15; a grid of more than
    ``_GRID_POINTS`` points raises :class:`CapacityError` before any of
    it is built.  The reference pmf must have full support and at least
    two inputs, and a NaN or +inf ratio raises.
    """
    if grid_depth < 2:
        raise ParameterError(f"need grid_depth >= 2, got {grid_depth}")
    if channel.n_in != len(p_star):
        raise ContractViolation(
            f"channel expects {channel.n_in} inputs, reference pmf has {len(p_star)}"
        )
    zeros = np.flatnonzero(p_star.weights == 0.0)
    if zeros.size:
        raise ParameterError(f"reference pmf needs full support, but p_star[{zeros[0]}] = 0")
    if len(p_star) < 2:
        raise ParameterError("no admissible grid point: a single input has no pmf but p*")
    matrix, p = channel.matrix, p_star.weights
    q = matrix @ p
    # S = diag(q*)^-1/2 W diag(p*)^1/2 less its top singular triple (1, sqrt(q*), sqrt(p*))
    keep = q > 0.0
    root_p, root_q = np.sqrt(p), np.sqrt(q[keep])
    _, sv, vt = np.linalg.svd(matrix[keep] * root_p / root_q[:, None] - np.outer(root_q, root_p))
    m = int(np.count_nonzero(sv > max(matrix.shape) * np.finfo(float).eps))
    basis = vt[:m].T / root_p[:, None]
    reach, ladder = 1, min(grid_depth, _BLOCK_POINTS - 1)
    while m > 1 and _shell(m, reach + 1) <= _DIRECTIONS:
        reach += 1
    points = _shell(m, reach) * (ladder + 1)
    if points > _GRID_POINTS:
        raise CapacityError(
            f"a depth-{grid_depth} tilt grid in {m} dimensions has {points} points, "
            f"over the limit of {_GRID_POINTS}; use a smaller --grid-depth"
        )
    args, log_p = (matrix, p, q), np.log(p)
    rungs = np.linspace(0.0, 1.0, ladder)
    best, argbest, start = -np.inf, p, None
    for us in _directions(m, reach, _BLOCK_POINTS // (ladder + 1)):
        vs = us @ basis.T
        top, spread = vs.max(axis=1, keepdims=True), np.ptp(vs, axis=1, keepdims=True)
        faces = np.where(vs >= top - 1e-12 * spread, p, 0.0)  # ties at the top within rounding
        faces /= faces.sum(axis=1, keepdims=True)
        radii = _RADII[0] * (_RADII[1] / (_RADII[0] * spread)) ** rungs
        lams = (us[:, None, :] * radii[:, :, None]).reshape(-1, m)
        ps = np.concatenate(
            [_tilted(lams, basis, log_p).reshape(len(us), ladder, -1), faces[:, None, :]], axis=1
        ).reshape(-1, len(p))
        ratios = _ratio_rows(ps, *args)
        i = int(np.argmax(ratios))
        if not ratios[i] < np.inf:
            raise ParameterError(f"non-finite ratio {float(ratios[i])!r} at a grid point")
        if ratios[i] > best:
            best, argbest = float(ratios[i]), ps[i].copy()
            d, r = divmod(i, ladder + 1)
            start = lams[d * ladder + r].copy() if r < ladder else None
    if start is not None:
        step = float(np.linalg.norm(start)) / reach
        argbest, best = _refine(start, argbest, best, step, basis, log_p, args)
    rho2 = float(sv[0] ** 2)
    if rho2 > best:
        best, argbest = rho2, p
    return best, Pmf(argbest)


@dataclass(frozen=True)
class OccupationContraction:
    sup: float
    argmax: OverlapPoint
    conjectured: float
    gap: float


def occupation_contraction(k: int, grid_depth: int = 200) -> OccupationContraction:
    """Supremum of the divergence ratio over the overlap region.

    The output pmf depends on the overlap only through w1, so at fixed
    w1 the ratio is largest where the input divergence is smallest.  The
    search scores that minimizing pmf at w1 = i / grid_depth, from w1 = 1
    down, and keeps the first best (ties keep the larger w1, as the
    simplex grid keeps (0, 0, 1)).  Every candidate already carries the
    largest ratio at its w1, so there is nothing for a refine to find.
    The overlap point is recovered from the winning pmf via
    w = (p1/2 + p2, p2).
    """
    if grid_depth < 2:
        raise ParameterError(f"need grid_depth >= 2, got {grid_depth}")
    p_star, channel = occupation_channel(k)
    w1 = np.arange(grid_depth, -1, -1) / grid_depth
    p11, p00 = _minimizing_cells(k, w1)
    rows = np.column_stack([p00, 2.0 * (w1 - p11), p11])
    rows /= rows.sum(axis=1, keepdims=True)
    ratios = _ratio_rows(rows, channel.matrix, p_star.weights, channel.apply(p_star).weights)
    i = int(np.argmax(ratios))
    p, sup = rows[i], float(ratios[i])
    arg = OverlapPoint(float(p[1] / 2.0 + p[2]), float(p[2]))
    conjectured = conjectured_contraction(k)
    if sup < conjectured - 1e-9:
        raise CertificateError(
            "occupation_sup_feasibility", arg.w1, "supremum fell below the feasible corner value"
        )
    return OccupationContraction(sup=sup, argmax=arg, conjectured=conjectured, gap=sup - conjectured)


# ---------------------------------------------------------------------------
# The w2 minimizer at fixed w1; k = 4 closed-form curves and the certificate
# ---------------------------------------------------------------------------

_W_PLUS = 5.0 / 12.0


def _xlny(x, y):
    # x * ln(y) with the 0 * ln 0 = 0 convention, elementwise.
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = x * np.log(y)
    return np.where(x == 0.0, 0.0, out)


def _check_unit(w1, name: str):
    w1 = np.asarray(w1, dtype=float)
    if np.any((w1 < 0.0) | (w1 > 1.0)):
        raise ParameterError(f"{name} needs w1 in [0, 1], got {w1!r}")
    return w1


def _like(w1, value):
    # The curves below take a scalar or an array of w1: a scalar in gives
    # a Python float out, an array gives the array.
    return float(value) if np.ndim(w1) == 0 else value


def _minimizing_cells(k: int, w1):
    """Cells (p11, p00) of the input pmf minimizing its divergence at fixed w1.

    The minimum satisfies p00 p11 = 4c p01^2 with c = (k-3)/(8(k-2)),
    p01 = w1 - p11 and p00 = 1 - 2 w1 + p11; both cells are taken in
    cancellation-free form, with a = (k-1)/(2(k-2)) and
    root = sqrt(16a (w1 - 1/2)^2 + 4(1-a)).  At k = 4 every coefficient
    is exact (a = 3/4).
    """
    a = (k - 1.0) / (2.0 * (k - 2.0))
    root = np.sqrt(16.0 * a * (w1 - 0.5) ** 2 + 4.0 * (1.0 - a))
    p11 = 4.0 * (1.0 - a) * w1 * w1 / (root + 2.0 - 4.0 * a * w1)
    p00 = 4.0 * (1.0 - a) * (1.0 - w1) ** 2 / (root + 4.0 * a * w1 - (4.0 * a - 2.0))
    return p11, p00


def minimizing_w2(k: int, w1):
    """The overlap w2 (= p11) minimizing the input divergence at fixed w1.

    ``OverlapPoint(w1, minimizing_w2(k, w1))`` is the point of least
    ``input_kl`` on the line of fixed w1.
    """
    if k < 4:
        raise ParameterError(f"need k >= 4, got {k}")
    w1 = _check_unit(w1, "minimizing w2")
    return _like(w1, _minimizing_cells(k, w1)[0])


def k4_output_divergence(w1):
    """KL of the output cells from their reference: w1 ln(2w1) + (1-w1) ln(2(1-w1)).

    Evaluated as t atanh(t) + log1p(-t^2)/2 with t = 2w1 - 1, which does
    not cancel near w1 = 1/2, where the divergence vanishes like t^2/2;
    the ends |t| = 1 take their limit ln 2.
    """
    w1 = _check_unit(w1, "output divergence")
    t = 2.0 * w1 - 1.0
    end = np.abs(t) == 1.0
    t = np.where(end, 0.0, t)  # arctanh(+-1) would warn
    return _like(w1, np.where(end, math.log(2.0), t * np.arctanh(t) + 0.5 * np.log1p(-t * t)))


def k4_min_input_divergence(w1):
    """Input divergence minimized over w2 at fixed w1."""
    w1 = _check_unit(w1, "minimized input divergence")
    p11, p00 = _minimizing_cells(4, w1)
    return _like(w1, _xlny(w1, 6.0 * p11) + _xlny(1.0 - w1, 6.0 * p00))


def k4_quadratic_bound(w1):
    """Lower bound 6 (1/2 - w1)^2 on the minimized input divergence."""
    w1 = _check_unit(w1, "quadratic bound")
    return _like(w1, 6.0 * (0.5 - w1) ** 2)


def k4_logsum_bound(w1):
    """Log-sum-inequality lower bound on [0, 5/12]; value 0 at the right end."""
    w1 = np.asarray(w1, dtype=float)
    if np.any((w1 < 0.0) | (w1 > _W_PLUS)):
        raise ParameterError(f"log-sum bound needs w1 in [0, 5/12], got {w1!r}")
    return _like(w1, _xlny(2.0 * w1, 12.0 * w1 / 5.0) + _xlny(1.0 - 2.0 * w1, 6.0 - 12.0 * w1))


def k4_ratio_envelope(w1):
    """Largest divergence ratio at fixed w1; the removable point 1/2 maps to 1/3."""
    w1 = _check_unit(w1, "ratio envelope")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.divide(k4_output_divergence(w1), k4_min_input_divergence(w1))
    return _like(w1, np.where(w1 == 0.5, 1.0 / 3.0, ratio))


@dataclass(frozen=True)
class K4Certificate:
    """Grid certificate that the k = 4 contraction supremum is the corner value.

    Not a formal proof: the resolution and all margins are recorded so
    the certificate can be audited.
    """

    w_bar: float
    w_0: float
    grid_resolution: int
    max_ratio_found: float
    conjectured_d_star: float
    ratio_at_w_bar: float
    margins: dict


def certify_k4_contraction(grid_points: int = 20001, root_tol: float = 1e-12) -> K4Certificate:
    """Run the five k = 4 checks at grid resolution and emit the certificate.

    Checks: (i) the minimized divergence dominates the quadratic bound on
    [0, 1]; (ii) it dominates the log-sum bound up to their crossover
    w_bar; (iii) the quadratic upper ratio decreases on [w_bar, 1/2];
    (iv) the corner-ratio comparison curve has exactly the roots
    {0, w_0} on [0, 5/12]; (v) the grid maximum of the ratio envelope
    stays within 1e-6 of the conjectured value.  Any failure raises
    :class:`CertificateError` naming the check and the witness point.
    """
    if grid_points < 10**4:
        raise ParameterError(f"need grid_points >= 1e4, got {grid_points}")
    d_star = conjectured_contraction(4)
    w_bar = find_root(
        lambda x: k4_quadratic_bound(x) - k4_logsum_bound(x), 0.05, 0.2, root_tol
    )
    if not 0.108 < w_bar < 0.1087:
        raise CertificateError("w_bar_range", w_bar, "crossover left its expected interval")
    tol = 1e-12
    margins = {}

    xs = np.linspace(0.0, 1.0, grid_points)
    gap_plus = k4_min_input_divergence(xs) - k4_quadratic_bound(xs)
    i = int(np.argmin(gap_plus))
    margins["dmin_minus_dplus_min"] = float(gap_plus[i])
    if gap_plus[i] < -tol:
        raise CertificateError("d_min_vs_d_plus", float(xs[i]), "quadratic bound violated")

    xs_lo = np.append(np.linspace(0.0, w_bar, grid_points, endpoint=False), w_bar)
    gap_minus = k4_min_input_divergence(xs_lo) - k4_logsum_bound(xs_lo)
    i = int(np.argmin(gap_minus))
    margins["dmin_minus_dminus_min"] = float(gap_minus[i])
    if gap_minus[i] < -tol:
        raise CertificateError("d_min_vs_d_minus", float(xs_lo[i]), "log-sum bound violated")

    xs_hi = np.linspace(w_bar, 0.5, grid_points)
    with np.errstate(divide="ignore", invalid="ignore"):
        r_plus = k4_output_divergence(xs_hi) / k4_quadratic_bound(xs_hi)
    r_plus[-1] = 1.0 / 3.0
    steps = np.diff(r_plus)
    i = int(np.argmax(steps))
    margins["rplus_max_increase"] = float(steps[i])
    if steps[i] > tol:
        raise CertificateError("r_plus_monotone", float(xs_hi[i]), "upper ratio increased")

    xs_f = np.linspace(0.0, _W_PLUS, grid_points)
    f = k4_output_divergence(xs_f) - d_star * k4_logsum_bound(xs_f)
    margins["f_at_origin"] = float(f[0])
    if abs(f[0]) > 1e-9:
        raise CertificateError("root_at_origin", 0.0, "comparison curve not zero at the origin")
    signs = np.sign(f[1:])
    nonzero = signs[signs != 0.0]
    flips = int(np.count_nonzero(nonzero[:-1] * nonzero[1:] < 0))
    if flips != 1:
        raise CertificateError("root_count", float(xs_f[-1]), f"expected 1 interior root, saw {flips}")
    flip_at = int(np.nonzero(np.diff(np.sign(f[1:])) != 0)[0][0]) + 1
    w_0 = find_root(
        lambda x: k4_output_divergence(x) - d_star * k4_logsum_bound(x),
        float(xs_f[flip_at]),
        float(xs_f[flip_at + 1]),
        root_tol,
    )
    margins["f_at_w_bar"] = float(k4_output_divergence(w_bar) - d_star * k4_logsum_bound(w_bar))

    r_max = k4_ratio_envelope(xs)
    i = int(np.argmax(r_max))
    max_ratio = float(r_max[i])
    margins["grid_max_headroom"] = d_star + 1e-6 - max_ratio
    if max_ratio > d_star + 1e-6:
        raise CertificateError("grid_max", float(xs[i]), "ratio envelope exceeded the corner value")

    return K4Certificate(
        w_bar=w_bar,
        w_0=w_0,
        grid_resolution=grid_points,
        max_ratio_found=max_ratio,
        conjectured_d_star=d_star,
        ratio_at_w_bar=k4_output_divergence(w_bar) / k4_quadratic_bound(w_bar),
        margins=margins,
    )


# ---------------------------------------------------------------------------
# Structured-text formats: channel inputs and certificate outputs
# ---------------------------------------------------------------------------


_CHANNEL_FIELDS = ("n_in", "n_out", "matrix", "p_star")


def format_channel(p_star: Pmf, channel: Channel) -> str:
    """Channel/pmf document: n_in, n_out, column-major matrix, reference pmf."""
    cols = channel.matrix.T.ravel()
    matrix = ", ".join(repr(float(v)) for v in cols)
    pstar = ", ".join(repr(float(v)) for v in p_star.weights)
    return (
        f"n_in = {channel.n_in}\n"
        f"n_out = {channel.n_out}\n"
        f"matrix = [{matrix}]\n"
        f"p_star = [{pstar}]\n"
    )


def parse_channel(text: str) -> tuple[Pmf, Channel]:
    """Parse the channel/pmf document; '#' lines are comments."""
    fields = {}
    for key, value, line in read_fields(text, _CHANNEL_FIELDS):
        try:
            if key in ("n_in", "n_out"):
                fields[key] = int(value)
            else:
                if not (value.startswith("[") and value.endswith("]")):
                    raise ValueError
                body = value[1:-1].strip()
                fields[key] = [float(tok) for tok in body.split(",")] if body else []
        except ValueError:
            raise ParseError(f"could not parse value for {key!r}", line=line) from None
        if key in ("n_in", "n_out") and fields[key] < 1:
            raise ParseError(f"{key} must be >= 1, got {fields[key]}", line=line)
    n_in, n_out = fields["n_in"], fields["n_out"]
    if len(fields["matrix"]) != n_in * n_out:
        raise ParseError(f"matrix needs {n_in * n_out} entries, got {len(fields['matrix'])}", line=line)
    if len(fields["p_star"]) != n_in:
        raise ParseError(f"p_star needs {n_in} entries, got {len(fields['p_star'])}", line=line)
    matrix = np.array(fields["matrix"], dtype=float).reshape(n_in, n_out).T
    return Pmf(np.array(fields["p_star"])), Channel(matrix)


def format_certificate(cert: K4Certificate) -> str:
    lines = [
        f"w_bar = {cert.w_bar!r}",
        f"w_0 = {cert.w_0!r}",
        f"grid_resolution = {cert.grid_resolution}",
        f"max_ratio_found = {cert.max_ratio_found!r}",
        f"conjectured_d_star = {cert.conjectured_d_star!r}",
        f"ratio_at_w_bar = {cert.ratio_at_w_bar!r}",
    ]
    for name in sorted(cert.margins):
        lines.append(f"margin.{name} = {cert.margins[name]!r}")
    return "\n".join(lines) + "\n"
