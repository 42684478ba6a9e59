"""Golden data sections of every subcommand at fixed arguments.

The ``satprob`` and ``count`` lines were recorded with the fixed-weight
enumeration solver that preceded the propagation search; decisions and
counts are exact, so a change of solver must leave them byte-identical.
Likewise the ``cycles --l-max 4`` section was recorded with the recursive
walk that preceded the frontier enumeration of the census.
The other sections were recorded before the KL kernels, the document
readers and the log-factorial table were each collapsed to one copy.
Every line must stay byte-identical, except ``ln_ratio_exact``: it is a
log-sum-exp over cancelling terms, so a different log-gamma table moves
it at the 1e-11 level, and it is compared within ``LN_RATIO_ABS_TOL``.
The ``sdpi`` section was re-recorded when the simplex grid and its climb
gave way to the search over exponential tilts: ``d_star`` moved by
3.5e-16 relative and the argmax entries by at most 2.3e-8.
"""

from datetime import datetime

import pytest

from occuthresh import cli

LN_RATIO_ABS_TOL = 1e-10

SATPROB_K4_D3_SEED11 = [
    "n,trials,sat_count,sat_fraction,ci_low,ci_high,seed",
    "8,50,25,0.5,0.3664451431682858,0.6335548568317142,11",
    "16,50,12,0.24,0.1429739139699173,0.3741268375794292,11",
    "24,50,9,0.18,0.09770192670234178,0.30796053674300783,11",
]

COUNT_K4_D2_N24_SEED5 = ["solutions = 94"]


THRESHOLD_K4 = [
    "k = 4",
    "w1_star = 0.5",
    "w2_star = 0.16666666666666666",
    "d_star = 2.826780210445695",
    "is_integer = false",
    "bounds_ok = true",
]

MOMENTS_EXACT = {
    ("4", "2", "2000"): [
        "k = 4",
        "d = 2",
        "n = 2000",
        "ln_EZ_exact = 405.81161919844453",
        "ln_EZ_asymptotic = 405.8116816984443",
        "ln_ratio_exact = 0.20304605933025854",
        "ln_ratio_asymptotic = 0.2027325540540821",
        "l = 1",
        "ln_EZXl = 405.81211932348543",
        "mu_l = 1.0",
    ],
    ("4", "3", "24"): [
        "k = 4",
        "d = 3",
        "n = 24",
        "ln_EZ_exact = -0.47702962465439214",
        "ln_EZ_asymptotic = -0.47008807643832695",
        "ln_ratio_exact = 1.7176055093342473",
        "ln_ratio_asymptotic = nan",  # d = 3 is above d*(4) ~ 2.83: no finite limit
        "l = 1",
        "ln_EZXl = 0.24428843287225088",
        "mu_l = 2.0",
    ],
}

CYCLES_K4_D3_N60_SEED3 = [
    "l,empirical_mean,lambda,z_score,empirical_var,chi2,dof",
    "1,3.15,3.0,0.5477225575051659,2.079487179487179,1.8318905844247773,4",
    "2,9.3,9.0,0.6324555320336774,9.13846153846154,8.64829130789513,4",
]

CYCLES_K4_D3_N400_SEED3_L4 = [
    "l,empirical_mean,lambda,z_score,empirical_var,chi2,dof",
    "1,3.75,3.0,0.8660254037844387,2.9166666666666665,0.0,1",
    "2,11.0,9.0,1.3333333333333333,14.0,0.0,1",
    "3,36.75,36.0,0.25,14.25,0.0,1",
    "4,159.25,162.0,-0.4321208107251124,68.25,0.0,1",
]

SAMPLE_K4_D3_N12_SEED9 = {
    "plain": "[14, 30, 20, 29, 25, 26, 17, 24, 23, 3, 33, 32, 13, 9, 0, 34, 12, 19, "
    "7, 27, 5, 11, 10, 21, 28, 2, 6, 31, 22, 18, 8, 1, 15, 35, 16, 4]",
    "simple": "[30, 14, 11, 33, 25, 19, 4, 10, 24, 27, 23, 15, 28, 16, 22, 12, 0, 9, "
    "18, 2, 26, 34, 3, 7, 29, 17, 5, 21, 32, 31, 1, 13, 35, 8, 20, 6]",
}

CHANNEL_3X3 = """# fixed 3-input, 3-output channel
n_in = 3
n_out = 3
matrix = [0.7, 0.2, 0.1, 0.1, 0.6, 0.3, 0.25, 0.25, 0.5]
p_star = [0.5, 0.3, 0.2]
"""

SDPI_CHANNEL_3X3 = [
    "d_star = 0.31412063315601446",
    "argmax = [0.30288229369819264, 0.45514230899684727, 0.24197539730496015]",
]

CONJECTURE_K5 = [
    "k = 5",
    "conjectured = 0.2922852532386289",
    "sup = 0.2922852532386288",
    "gap = -1.1102230246251565e-16",
    "argmax_w1 = 1.0",
    "argmax_w2 = 1.0",
]

VERIFY_K4 = [
    "w_bar = 0.10831008652376109",
    "w_0 = 0.14764422654702014",
    "grid_resolution = 20001",
    "max_ratio_found = 0.3868528072345416",
    "conjectured_d_star = 0.3868528072345416",
    "ratio_at_w_bar = 0.3804126044926599",
    "margin.dmin_minus_dminus_min = 0.0",
    "margin.dmin_minus_dplus_min = -2.3352274839327433e-16",
    "margin.f_at_origin = 0.0",
    "margin.f_at_w_bar = -0.005928373617889837",
    "margin.grid_max_headroom = 9.999999999732445e-07",
    "margin.rplus_max_increase = -8.523387551306882e-11",
]


# Every manifest line but the two timestamps, pinned like the data sections.
MANIFEST_SATPROB = [
    "# manifest: subcommand = satprob",
    "# manifest: version = 0.1.0",
    "# manifest: seed = 11",
    "# manifest: threads = 1",
    "# manifest: cap = 32",
    "# manifest: d = 3",
    "# manifest: k = 4",
    "# manifest: n = [8, 16, 24]",
    "# manifest: r = 2",
    "# manifest: trials = 50",
]

MANIFEST_VERIFY_K4 = [
    "# manifest: subcommand = verify-k4",
    "# manifest: version = 0.1.0",
    "# manifest: seed = None",
    "# manifest: threads = None",
    "# manifest: grid_points = 20001",
    "# manifest: root_tol = 1e-12",
]


def manifest_section(path) -> list[str]:
    """The manifest lines, with the two timestamps checked and dropped."""
    lines = [line for line in path.read_text().splitlines() if line.startswith("# manifest: ")]
    started, finished = (datetime.fromisoformat(line.partition(" = ")[2]) for line in lines[-2:])
    assert lines[-2].startswith("# manifest: started = ")
    assert lines[-1].startswith("# manifest: finished = ")
    assert started <= finished
    return lines[:-2]


def data_section(path) -> list[str]:
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


def run_data(tmp_path, argv) -> list[str]:
    out = tmp_path / "out.txt"
    assert cli.main(argv + ["--out", str(out)]) == 0
    return data_section(out)


def test_satprob_data_section(tmp_path):
    out = tmp_path / "satprob.csv"
    assert cli.main(["satprob", "--k", "4", "--d", "3", "--n", "8,16,24", "--trials", "50",
                     "--seed", "11", "--threads", "1", "--out", str(out)]) == 0
    assert data_section(out) == SATPROB_K4_D3_SEED11
    assert manifest_section(out) == MANIFEST_SATPROB


def test_count_data_section(tmp_path):
    cfg = tmp_path / "instance.cfg"
    out = tmp_path / "count.txt"
    assert cli.main(["sample", "--k", "4", "--d", "2", "--n", "24", "--seed", "5",
                     "--out", str(cfg)]) == 0
    assert cli.main(["count", "--in", str(cfg), "--out", str(out)]) == 0
    assert data_section(out) == COUNT_K4_D2_N24_SEED5


def test_threshold_data_section(tmp_path):
    assert run_data(tmp_path, ["threshold", "--k", "4"]) == THRESHOLD_K4


@pytest.mark.parametrize("k,d,n", sorted(MOMENTS_EXACT))
def test_moments_exact_data_section(tmp_path, k, d, n):
    got = run_data(tmp_path, ["moments", "--k", k, "--d", d, "--n", n, "--exact"])
    want = MOMENTS_EXACT[(k, d, n)]
    assert len(got) == len(want)
    for got_line, want_line in zip(got, want):
        if want_line.startswith("ln_ratio_exact = "):
            key, _, value = got_line.partition(" = ")
            assert key == "ln_ratio_exact"
            assert abs(float(value) - float(want_line.partition(" = ")[2])) <= LN_RATIO_ABS_TOL
        else:
            assert got_line == want_line


def test_cycles_data_section(tmp_path):
    got = run_data(tmp_path, ["cycles", "--k", "4", "--d", "3", "--n", "60", "--samples", "40",
                              "--seed", "3", "--threads", "1"])
    assert got == CYCLES_K4_D3_N60_SEED3


def test_cycles_walk_data_section(tmp_path):
    got = run_data(tmp_path, ["cycles", "--k", "4", "--d", "3", "--n", "400", "--samples", "4",
                              "--l-max", "4", "--seed", "3", "--threads", "1"])
    assert got == CYCLES_K4_D3_N400_SEED3_L4


@pytest.mark.parametrize("kind", ["plain", "simple"])
def test_sample_data_section(tmp_path, kind):
    argv = ["sample", "--k", "4", "--d", "3", "--n", "12", "--seed", "9"]
    got = run_data(tmp_path, argv + (["--simple"] if kind == "simple" else []))
    header = ["n = 12", "d = 3", "k = 4", "r = 2", "m = 9"]
    assert got == header + [f"wiring = {SAMPLE_K4_D3_N12_SEED9[kind]}"]


def test_sdpi_data_section(tmp_path):
    channel = tmp_path / "channel.txt"
    channel.write_text(CHANNEL_3X3)
    assert run_data(tmp_path, ["sdpi", "--channel", str(channel)]) == SDPI_CHANNEL_3X3


def test_conjecture_data_section(tmp_path):
    assert run_data(tmp_path, ["conjecture", "--k", "5"]) == CONJECTURE_K5


def test_verify_k4_data_section(tmp_path):
    assert run_data(tmp_path, ["verify-k4"]) == VERIFY_K4
    assert manifest_section(tmp_path / "out.txt") == MANIFEST_VERIFY_K4
