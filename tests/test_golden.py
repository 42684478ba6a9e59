"""Golden data sections of the solver-backed subcommands.

The expected lines were recorded with the fixed-weight enumeration
solver that preceded the propagation search.  Decisions and counts are
exact, so a change of solver must leave them byte-identical.
"""

from occuthresh import cli

SATPROB_K4_D3_SEED11 = [
    "n,trials,sat_count,sat_fraction,ci_low,ci_high,seed",
    "8,50,25,0.5,0.3664451431682858,0.6335548568317142,11",
    "16,50,12,0.24,0.1429739139699173,0.3741268375794292,11",
    "24,50,9,0.18,0.09770192670234178,0.30796053674300783,11",
]

COUNT_K4_D2_N24_SEED5 = ["solutions = 94"]


def data_section(path) -> list[str]:
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


def test_satprob_data_section(tmp_path):
    out = tmp_path / "satprob.csv"
    assert cli.main(["satprob", "--k", "4", "--d", "3", "--n", "8,16,24", "--trials", "50",
                     "--seed", "11", "--threads", "1", "--out", str(out)]) == 0
    assert data_section(out) == SATPROB_K4_D3_SEED11


def test_count_data_section(tmp_path):
    cfg = tmp_path / "instance.cfg"
    out = tmp_path / "count.txt"
    assert cli.main(["sample", "--k", "4", "--d", "2", "--n", "24", "--seed", "5",
                     "--out", str(cfg)]) == 0
    assert cli.main(["count", "--in", str(cfg), "--out", str(out)]) == 0
    assert data_section(out) == COUNT_K4_D2_N24_SEED5
