"""Command-line orchestration over the library modules.

Every run builds a manifest (subcommand, parameters, master seed,
threads, version, timestamps) that is embedded as '#'-prefixed comment
lines in whatever file or stream the run emits.  The data section below
the comments is a pure function of the manifest minus its timestamps,
so reruns are byte-identical and diffable.

Exit codes: 0 success, 2 usage/domain errors, 3 verification failures.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .errors import CertificateError, OccuthreshError, ParameterError
from .instances import Params, deserialize, sample_configuration, sample_simple, serialize
from .moments import (
    first_moment_asymptotic,
    first_moment_exact,
    joint_moment_exact,
    second_moment_asymptotic,
    second_moment_exact_ratio,
    threshold_dstar,
)
from .occupancy import count_solutions, estimate_sat_probability
from .parallel import thread_count
from .cycles import census_samples, mu_l, poisson_gof
from .sdpi import (
    certify_k4_contraction,
    contraction_coefficient,
    format_certificate,
    occupation_contraction,
    parse_channel,
)


@dataclass
class RunManifest:
    subcommand: str
    params: dict
    seed: int | None
    threads: int | None
    version: str = __version__
    started: str = ""
    finished: str = ""

    def comment_lines(self) -> list[str]:
        rows = [
            ("subcommand", self.subcommand),
            ("version", self.version),
            ("seed", self.seed),
            ("threads", self.threads),
        ]
        rows += sorted(self.params.items())
        rows += [("started", self.started), ("finished", self.finished)]
        return [f"# manifest: {key} = {value}" for key, value in rows]


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _emit(out: str | None, manifest: RunManifest, data_lines: list[str]):
    text = "\n".join(manifest.comment_lines() + data_lines) + "\n"
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise ParameterError(f"cannot write {out}: {exc}") from None
    else:
        sys.stdout.write(text)


def _read_input(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read {path}: {exc}") from None


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="occuthresh",
        description="Random regular 2-in-k occupation problems: thresholds, moments, "
        "cycle statistics, and KL contraction coefficients.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("threshold", help="satisfiability threshold degree for a given k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out")

    p = sub.add_parser("satprob", help="Monte Carlo satisfiability fractions over n")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=_int_list, required=True, help="comma-separated n values")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--cap", type=int, default=32)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out")

    p = sub.add_parser("cycles", help="short-cycle census statistics vs Poisson limits")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--l-max", type=int, default=2)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out")

    p = sub.add_parser("moments", help="exact and asymptotic moment report")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--exact", action="store_true", help="include exact finite-n values")
    p.add_argument("--out")

    p = sub.add_parser("sdpi", help="contraction coefficient of a channel file")
    p.add_argument("--channel", required=True, help="channel/pmf document path")
    p.add_argument("--grid-depth", type=int, default=200)
    p.add_argument("--refine-tol", type=float, default=1e-10)
    p.add_argument("--out")

    p = sub.add_parser("verify-k4", help="run the k=4 contraction certificate")
    p.add_argument("--grid-points", type=int, default=20001)
    p.add_argument("--root-tol", type=float, default=1e-12)
    p.add_argument("--out")

    p = sub.add_parser("conjecture", help="occupation contraction supremum vs conjectured value")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--grid-depth", type=int, default=200)
    p.add_argument("--refine-tol", type=float, default=1e-10)
    p.add_argument("--out")

    p = sub.add_parser("sample", help="sample a configuration to a file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--simple", action="store_true", help="reject instances with two-cycles")
    p.add_argument("--max-attempts", type=int, default=1000)
    p.add_argument("--out")

    p = sub.add_parser("count", help="exact solution count of a configuration file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--cap", type=int, default=32)
    p.add_argument("--out")

    return parser


def _run_threshold(args, manifest: RunManifest) -> list[str]:
    rep = threshold_dstar(args.k)
    return [
        f"k = {rep.k}",
        f"w1_star = {rep.w1_star!r}",
        f"w2_star = {rep.w2_star!r}",
        f"d_star = {rep.d_star!r}",
        f"is_integer = {str(rep.is_integer).lower()}",
        f"bounds_ok = {str(rep.bounds_ok).lower()}",
    ]


def _run_satprob(args, manifest: RunManifest) -> list[str]:
    threads = thread_count(args.threads)
    manifest.threads = threads
    rows = estimate_sat_probability(
        k=args.k,
        d=args.d,
        n_list=args.n,
        trials=args.trials,
        seed=args.seed,
        r=args.r,
        threads=threads,
        cap=args.cap,
    )
    lines = ["n,trials,sat_count,sat_fraction,ci_low,ci_high,seed"]
    for row in rows:
        lines.append(
            f"{row.n},{row.trials},{row.sat_count},{row.sat_fraction!r},"
            f"{row.ci_low!r},{row.ci_high!r},{row.seed}"
        )
    return lines


def _run_cycles(args, manifest: RunManifest) -> list[str]:
    if args.samples < 2:  # poisson_gof needs two censuses; refuse before sampling
        raise ParameterError(f"cycles needs --samples >= 2, got {args.samples}")
    threads = thread_count(args.threads)
    manifest.threads = threads
    censuses = census_samples(
        k=args.k,
        d=args.d,
        n=args.n,
        samples=args.samples,
        seed=args.seed,
        l_max=args.l_max,
        r=args.r,
        threads=threads,
    )
    lines = ["l,empirical_mean,lambda,z_score,empirical_var,chi2,dof"]
    for row in poisson_gof(censuses, args.k, args.d):
        lines.append(
            f"{row.l},{row.empirical_mean!r},{row.lam!r},{row.z_score!r},"
            f"{row.empirical_var!r},{row.chi2!r},{row.dof}"
        )
    return lines


def _run_moments(args, manifest: RunManifest) -> list[str]:
    params = Params(n=args.n, d=args.d, k=args.k, r=2)
    ln_ez_asym = first_moment_asymptotic(args.k, args.d, args.n).value
    try:
        ln_ratio_asym = math.log(second_moment_asymptotic(args.k, args.d))
    except ParameterError:  # no finite limit outside 1 < d < d*(k)
        ln_ratio_asym = float("nan")
    if args.exact:
        ln_ez = first_moment_exact(params).value
        ratio = second_moment_exact_ratio(params)
        # A fractional ones quota 2n/k makes E[Z] = 0, and E[Z^2]/E[Z]^2 is 0/0.
        ln_ratio = float("nan") if ratio.is_zero else ratio.value
        ln_ezxl = joint_moment_exact(params, args.l).value
    else:
        ln_ez = ln_ratio = ln_ezxl = float("nan")
    return [
        f"k = {args.k}",
        f"d = {args.d}",
        f"n = {args.n}",
        f"ln_EZ_exact = {ln_ez!r}",
        f"ln_EZ_asymptotic = {ln_ez_asym!r}",
        f"ln_ratio_exact = {ln_ratio!r}",
        f"ln_ratio_asymptotic = {ln_ratio_asym!r}",
        f"l = {args.l}",
        f"ln_EZXl = {ln_ezxl!r}",
        f"mu_l = {mu_l(args.l, args.k, args.d)!r}",
    ]


def _run_sdpi(args, manifest: RunManifest) -> list[str]:
    p_star, channel = parse_channel(_read_input(args.channel))
    value, argmax = contraction_coefficient(
        p_star, channel, grid_depth=args.grid_depth, refine_tol=args.refine_tol
    )
    arg = ", ".join(repr(float(v)) for v in argmax.weights)
    return [f"d_star = {value!r}", f"argmax = [{arg}]"]


def _run_verify_k4(args, manifest: RunManifest) -> list[str]:
    cert = certify_k4_contraction(grid_points=args.grid_points, root_tol=args.root_tol)
    return format_certificate(cert).splitlines()


def _run_conjecture(args, manifest: RunManifest) -> list[str]:
    res = occupation_contraction(
        args.k, grid_depth=args.grid_depth, refine_tol=args.refine_tol
    )
    return [
        f"k = {args.k}",
        f"conjectured = {res.conjectured!r}",
        f"sup = {res.sup!r}",
        f"gap = {res.gap!r}",
        f"argmax_w1 = {res.argmax.w1!r}",
        f"argmax_w2 = {res.argmax.w2!r}",
    ]


def _run_sample(args, manifest: RunManifest) -> list[str]:
    params = Params(n=args.n, d=args.d, k=args.k, r=args.r)
    if args.simple:
        cfg = sample_simple(params, args.seed, max_attempts=args.max_attempts)
    else:
        cfg = sample_configuration(params, args.seed)
    return serialize(cfg).splitlines()


def _run_count(args, manifest: RunManifest) -> list[str]:
    cfg = deserialize(_read_input(args.infile))
    z = count_solutions(cfg, cap=args.cap)
    return [f"solutions = {z}"]


_RUNNERS = {
    "threshold": _run_threshold,
    "satprob": _run_satprob,
    "cycles": _run_cycles,
    "moments": _run_moments,
    "sdpi": _run_sdpi,
    "verify-k4": _run_verify_k4,
    "conjecture": _run_conjecture,
    "sample": _run_sample,
    "count": _run_count,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    manifest = RunManifest(
        subcommand=args.subcommand,
        params={
            key: value
            for key, value in sorted(vars(args).items())
            if key not in ("subcommand", "seed", "threads", "out")
        },
        seed=getattr(args, "seed", None),
        threads=getattr(args, "threads", None),
        started=_now(),
    )
    try:
        data_lines = _RUNNERS[args.subcommand](args, manifest)
        manifest.finished = _now()
        _emit(getattr(args, "out", None), manifest, data_lines)
    except CertificateError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3
    except OccuthreshError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
