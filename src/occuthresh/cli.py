"""Command-line orchestration over the library modules.

Each flag is declared once, in ``_FLAGS``, and each subcommand once, in
``_build_parser``: its name, help and flags (named without their
dashes).  Every subcommand takes ``--out``.  The parser is built at the
first ``main`` call and kept for the process.  The runner of subcommand
``name`` is ``_run_<name>`` (``-`` read as ``_``), a plain function
from the parsed arguments to the data lines.  ``main`` looks it up, and
runners look library functions up, in this module's namespace at call
time, so a caller may swap either (the benchmark's tracer does).

``main`` resolves ``--threads`` where a subcommand has it, runs the
runner and writes the manifest (subcommand, version, master seed,
threads, parameters, timestamps) as '#'-prefixed comment lines above the
data.  The data section is a pure function of the manifest minus its
timestamps, so reruns are byte-identical and diffable.

Exit codes: 0 success, 2 usage/domain errors (a malformed flag value and
running out of memory included), 3 verification failures.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import asdict, astuple
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .errors import CertificateError, OccuthreshError, ParameterError
from .instances import Params, deserialize, format_fields, sample_configuration, sample_simple, serialize
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


def _seed(text: str) -> int:
    seed = int(text)
    if not 0 <= seed < 1 << 64:
        raise argparse.ArgumentTypeError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def _n_list(text: str) -> list[int]:
    values = [int(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"need at least one n, got {text!r}")
    return values


# argparse settings of every flag, by flag string
_FLAGS = {
    "--k": dict(type=int, required=True),
    "--d": dict(type=int, required=True),
    "--n": dict(type=int, required=True),
    "--trials": dict(type=int, required=True),
    "--samples": dict(type=int, required=True),
    "--seed": dict(type=_seed, required=True),
    "--l-max": dict(type=int, default=2),
    "--l": dict(type=int, default=1),
    "--r": dict(type=int, default=2),
    "--exact": dict(action="store_true", help="include exact finite-n values"),
    "--threads": dict(type=int),
    "--channel": dict(required=True, help="channel/pmf document path"),
    "--grid-depth": dict(type=int, default=200),
    "--grid-points": dict(type=int, default=20001),
    "--root-tol": dict(type=float, default=1e-12),
    "--simple": dict(action="store_true", help="reject instances with two-cycles"),
    "--max-attempts": dict(type=int, default=1000),
    "--in": dict(dest="infile", required=True),
    "--out": {},
}

# manifest rows written before the sorted parameters, or not at all
_NOT_PARAMS = ("subcommand", "seed", "threads", "out")


@functools.cache  # built once per process; it holds nothing read from the environment
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="occuthresh",
        description="Random regular r-in-k occupation problems: thresholds, moments, "
        "cycle statistics, and KL contraction coefficients.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, help, flags, **overrides):
        # ``flags`` names each flag without its dashes; an override replaces its settings
        p = sub.add_parser(name, help=help)
        for flag in (*flags.split(), "out"):
            p.add_argument(f"--{flag}", **overrides.get(flag, _FLAGS[f"--{flag}"]))

    command("threshold", "satisfiability threshold degree for a given k", "k")
    command("satprob", "Monte Carlo satisfiability fractions over n",
            "k d n trials seed r threads",
            n=dict(type=_n_list, required=True, help="comma-separated n values"))
    command("cycles", "short-cycle census statistics vs Poisson limits",
            "k d n samples seed l-max threads")
    command("moments", "exact and asymptotic moment report", "k d n l exact")
    command("sdpi", "contraction coefficient of a channel file", "channel grid-depth")
    command("verify-k4", "run the k=4 contraction certificate", "grid-points root-tol")
    command("conjecture", "occupation contraction supremum vs conjectured value",
            "k grid-depth")
    command("sample", "sample a configuration to a file",
            "k d n seed r simple max-attempts")
    command("count", "exact solution count of a configuration file", "in")
    return parser


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _manifest_lines(args, started: str, finished: str) -> list[str]:
    rows = [
        ("subcommand", args.subcommand),
        ("version", __version__),
        ("seed", getattr(args, "seed", None)),
        ("threads", getattr(args, "threads", None)),
    ]
    rows += [(key, value) for key, value in sorted(vars(args).items()) if key not in _NOT_PARAMS]
    rows += [("started", started), ("finished", finished)]
    return [f"# manifest: {key} = {value}" for key, value in rows]


def _emit(out: str | None, lines: list[str]):
    text = "\n".join(lines) + "\n"
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


def _csv(header: str, rows) -> list[str]:
    return [header] + [",".join(repr(value) for value in astuple(row)) for row in rows]


def _run_threshold(args) -> list[str]:
    return format_fields(asdict(threshold_dstar(args.k)).items())


def _run_satprob(args) -> list[str]:
    rows = estimate_sat_probability(
        k=args.k,
        d=args.d,
        n_list=args.n,
        trials=args.trials,
        seed=args.seed,
        r=args.r,
        threads=args.threads,
    )
    return _csv("n,trials,sat_count,sat_fraction,ci_low,ci_high,seed", rows)


def _run_cycles(args) -> list[str]:
    if args.samples < 2:  # poisson_gof needs two censuses; refuse before sampling
        raise ParameterError(f"cycles needs --samples >= 2, got {args.samples}")
    censuses = census_samples(
        k=args.k,
        d=args.d,
        n=args.n,
        samples=args.samples,
        seed=args.seed,
        l_max=args.l_max,
        threads=args.threads,
    )
    return _csv("l,empirical_mean,lambda,z_score,empirical_var,chi2,dof",
                poisson_gof(censuses, args.k, args.d))


def _run_moments(args) -> list[str]:
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
    return format_fields([
        ("k", args.k),
        ("d", args.d),
        ("n", args.n),
        ("ln_EZ_exact", ln_ez),
        ("ln_EZ_asymptotic", ln_ez_asym),
        ("ln_ratio_exact", ln_ratio),
        ("ln_ratio_asymptotic", ln_ratio_asym),
        ("l", args.l),
        ("ln_EZXl", ln_ezxl),
        ("mu_l", mu_l(args.l, args.k, args.d)),
    ])


def _run_sdpi(args) -> list[str]:
    p_star, channel = parse_channel(_read_input(args.channel))
    value, argmax = contraction_coefficient(p_star, channel, grid_depth=args.grid_depth)
    return format_fields([("d_star", value), ("argmax", argmax.weights)])


def _run_verify_k4(args) -> list[str]:
    cert = certify_k4_contraction(grid_points=args.grid_points, root_tol=args.root_tol)
    return format_certificate(cert).splitlines()


def _run_conjecture(args) -> list[str]:
    res = occupation_contraction(args.k, grid_depth=args.grid_depth)
    return format_fields([
        ("k", args.k),
        ("conjectured", res.conjectured),
        ("sup", res.sup),
        ("gap", res.gap),
        ("argmax_w1", res.argmax.w1),
        ("argmax_w2", res.argmax.w2),
    ])


def _run_sample(args) -> list[str]:
    params = Params(n=args.n, d=args.d, k=args.k, r=args.r)
    if args.simple:
        cfg = sample_simple(params, args.seed, max_attempts=args.max_attempts)
    else:
        cfg = sample_configuration(params, args.seed)
    return serialize(cfg).splitlines()


def _run_count(args) -> list[str]:
    cfg = deserialize(_read_input(args.infile))
    return format_fields([("solutions", count_solutions(cfg))])


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    started = _now()
    try:
        if hasattr(args, "threads"):
            args.threads = thread_count(args.threads)
        data_lines = globals()[f"_run_{args.subcommand.replace('-', '_')}"](args)
        _emit(args.out, _manifest_lines(args, started, _now()) + data_lines)
    except CertificateError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3
    except OccuthreshError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a size flag too large for this machine
        print(f"error: out of memory: {str(exc) or 'MemoryError'}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
