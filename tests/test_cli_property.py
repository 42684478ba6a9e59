"""Property test: every generated argv exits 0, 2 or 3, never with a traceback.

Each case starts from an argv the subcommand accepts and changes up to
two of its flags: to a value past the accepted range (zero, negatives,
seeds outside [0, 2^64), nan and inf tolerances, empty ``--n`` lists),
to a malformed string, or by leaving the flag out.  Sizes stay small so
every case runs in milliseconds; a case past 30 s fails and names its
argv.  argparse refuses malformed argv with ``SystemExit(2)``.

Each table must name exactly the flags its subcommand declares, and its
accepted argv must exit 0: a table naming a flag the parser no longer
has would make every case exit 2 at parse time and test nothing.
"""

import argparse
import contextlib
import io

import pytest

from occuthresh import cli

from tests.case_limit import time_limit

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

OMIT = object()  # the flag is left out
FLAG = object()  # a store_true flag, given without a value
MALFORMED = st.sampled_from(["", "x", "1.5", "nan", "1e3", "0x10"])


def ints(lo: int, hi: int):
    return st.integers(lo, hi).map(str)


def past(values):
    """``values``, a malformed string, or the flag left out."""
    return st.one_of(values, MALFORMED, st.just(OMIT))


KS, DS, RS = past(ints(-2, 12)), past(ints(-1, 5)), past(ints(-1, 4))
SEEDS = past(st.sampled_from([-1, 0, 2**64 - 1, 2**64, -(2**64), 10**30]).map(str))
TOLS = past(st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e-300", "5e-324", "0.5", "1e300"]))
N_LISTS = past(st.lists(st.integers(-2, 24), max_size=3).map(lambda ns: ",".join(map(str, ns))))
THREADS = past(ints(-2, 1))


def commands(channel: str, cfg: str, missing: str) -> dict:
    """subcommand -> {flag: (accepted value, changed values)}."""
    paths = past(st.sampled_from([channel, cfg, missing]))
    return {
        "threshold": {"--k": ("4", past(ints(-2, 10**12)))},
        "satprob": {
            "--k": ("4", KS), "--d": ("3", DS), "--n": ("8,12", N_LISTS),
            "--trials": ("3", past(ints(-1, 3))), "--seed": ("7", SEEDS), "--r": ("2", RS),
            "--cap": ("32", past(ints(-1, 40))), "--threads": ("1", THREADS),
        },
        "cycles": {
            "--k": ("4", KS), "--d": ("3", DS), "--n": ("40", past(ints(-2, 60))),
            "--samples": ("3", past(ints(-1, 4))), "--seed": ("3", SEEDS),
            "--l-max": ("3", past(ints(-1, 7))), "--threads": ("1", THREADS),
        },
        "moments": {
            "--k": ("4", KS), "--d": ("2", DS), "--n": ("40", past(ints(-2, 80))),
            "--l": ("1", past(ints(-1, 40))), "--exact": (FLAG, st.just(OMIT)),
        },
        "sdpi": {
            "--channel": (channel, paths), "--grid-depth": ("20", past(ints(-1, 40))),
        },
        "verify-k4": {"--grid-points": ("20001", past(ints(-1, 30000))), "--root-tol": ("1e-12", TOLS)},
        "conjecture": {"--k": ("5", past(ints(-2, 40))), "--grid-depth": ("20", past(ints(-1, 40)))},
        "sample": {
            "--k": ("4", KS), "--d": ("3", DS), "--n": ("12", past(ints(-2, 40))), "--seed": ("9", SEEDS),
            "--r": ("2", RS), "--simple": (FLAG, st.just(OMIT)),
            "--max-attempts": ("50", past(ints(-1, 5))),
        },
        "count": {"--in": (cfg, paths), "--cap": ("32", past(ints(-1, 40)))},
    }


@pytest.fixture(scope="module")
def flags(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    channel, cfg = root / "channel.txt", root / "instance.cfg"
    channel.write_text("n_in = 2\nn_out = 2\nmatrix = [0.9, 0.1, 0.2, 0.8]\np_star = [0.5, 0.5]\n")
    assert cli.main(["sample", "--k", "4", "--d", "2", "--n", "8", "--seed", "5",
                     "--out", str(cfg)]) == 0
    return commands(str(channel), str(cfg), str(root / "missing.txt"))


def run(argv) -> tuple[int, str]:
    """Exit code and output of ``cli.main(argv)``, with argparse's usage exit caught."""
    sink = io.StringIO()
    with time_limit(argv), pytest.MonkeyPatch.context() as mp, \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        mp.setenv("OCCUTHRESH_THREADS", "1")  # an omitted --threads starts no workers
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
            assert code == 2, (argv, sink.getvalue())
    return code, sink.getvalue()


def accepted_argv(subcommand: str, table: dict) -> list[str]:
    argv = [subcommand]
    for flag, (value, _) in table.items():
        argv += [flag] if value is FLAG else [flag, value]
    return argv


SUBCOMMANDS = ["threshold", "satprob", "cycles", "moments", "sdpi", "verify-k4", "conjecture",
               "sample", "count"]


def test_tables_name_every_declared_flag(flags):
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(sub.choices) == sorted(SUBCOMMANDS) == sorted(flags)
    for name, subparser in sub.choices.items():
        declared = {opt for a in subparser._actions for opt in a.option_strings}
        assert set(flags[name]) == declared - {"-h", "--help", "--out"}, name


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_accepted_argv_exits_0(subcommand, flags):
    argv = accepted_argv(subcommand, flags[subcommand])
    code, output = run(argv)
    assert code == 0, (argv, output)


@st.composite
def argvs(draw, subcommand: str, table: dict):
    changed = draw(st.sets(st.sampled_from(sorted(table)), max_size=2))
    argv = [subcommand]
    for flag, (accepted, values) in table.items():
        value = draw(values) if flag in changed else accepted
        if value is FLAG:
            argv.append(flag)
        elif value is not OMIT:
            argv += [flag, value]
    return argv


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_generated_argv_exits_0_2_or_3(subcommand, flags):
    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(argvs(subcommand, flags[subcommand]))
    def check(argv):
        code, output = run(argv)
        assert code in (0, 2, 3), (argv, output)

    check()
