"""Self-test of the benchmark's output checks, at tiny sizes.

Every check runs twice: on the program's real output, where it must
pass, and on a copy with one deliberately wrong answer (a flipped
decision, an odd count, an eta above the Dobrushin bound, ...), where it
must fail.  A check that passes both is vacuous and fails the self-test.

    python3 perfbench/selftest.py      # from the repository root; exit 0 when every check is sound
"""

from __future__ import annotations

import re
import sys
import tempfile
from pathlib import Path

import numpy as np

import reference as R
import workloads as W
from run import import_program

cli = import_program()
FAULTS = []


def run(argv: list[str], out: Path) -> str:
    code = cli.main([*argv, "--out", str(out)])
    if code != 0:
        raise SystemExit(f"{argv[0]} exited {code}")
    return out.read_text()


def set_value(text: str, key: str, value) -> str:
    """Replace the value of a ``key = value`` line."""
    return re.sub(rf"^{re.escape(key)} = .*$", f"{key} = {value}", text, count=1, flags=re.M)


def set_csv(text: str, row: int, column: str, value) -> str:
    lines = text.splitlines()
    data = [i for i, line in enumerate(lines) if not line.startswith("#")]
    header = lines[data[0]].split(",")
    cells = lines[data[1 + row]].split(",")
    cells[header.index(column)] = str(value)
    lines[data[1 + row]] = ",".join(cells)
    return "\n".join(lines) + "\n"


def expect(name: str, good, bad):
    """``good`` and ``bad`` are check results: (name, ok, detail) or lists of them."""
    good_ok = all(r[1] for r in (good if isinstance(good, list) else [good]))
    bad_ok = all(r[1] for r in (bad if isinstance(bad, list) else [bad]))
    sound = good_ok and not bad_ok
    print(f"{'ok  ' if sound else 'FAIL'} {name}: true output {'passes' if good_ok else 'FAILS'}, "
          f"wrong output {'rejected' if not bad_ok else 'ACCEPTED'}")
    if not sound:
        FAULTS.append(name)


def solve_checks(work: Path):
    n, d, k, trials, seed = 12, 3, 4, 8, 5
    text = run(["satprob", "--k", str(k), "--d", str(d), "--n", str(n), "--trials", str(trials),
                "--seed", str(seed), "--threads", "1"], work / "satprob.csv")
    ok, sat, detail = W.check_satprob(text, n, d, k, trials, seed)
    flipped = set_csv(text, 0, "sat_count", sat + 1 if sat < trials else sat - 1)
    bad, _, bad_detail = W.check_satprob(flipped, n, d, k, trials, seed)
    expect("solve.decisions (flipped decision)", ("", ok, detail), ("", bad, bad_detail))

    n, d, seed = 12, 2, 9
    inst = run(["sample", "--k", str(k), "--d", str(d), "--n", str(n), "--seed", str(seed)], work / "i.cfg")
    count = run(["count", "--in", str(work / "i.cfg")], work / "c.txt")
    good = W.check_count(inst, count, n, d, k, seed)
    z = int(W.key_values(count)["solutions"])
    odd = set_value(count, "solutions", z + 1)
    expect("solve.count_even (odd count)", good[2], W.check_count(inst, odd, n, d, k, seed)[2])
    off_by_two = set_value(count, "solutions", z + 2)
    expect("solve.count_exact (wrong even count)", good[1], W.check_count(inst, off_by_two, n, d, k, seed)[1])
    wiring = W.wiring_of(inst)
    wiring[0], wiring[1] = wiring[1], wiring[0]
    swapped = set_value(inst, "wiring", "[" + ", ".join(map(str, wiring)) + "]")
    expect("solve.sample_wiring (swapped slots)", good[0], W.check_count(swapped, count, n, d, k, seed)[0])

    expect("solve.wilson_window (no satisfiable instance in 400)",
           W.check_window(16, 104, 400), W.check_window(16, 0, 400))


def census_checks(work: Path):
    n, d, k, samples, seed = 40, 3, 4, 30, 21
    common = ["--k", str(k), "--d", str(d), "--n", str(n), "--threads", "1"]
    pairs = run(["cycles", *common, "--samples", str(samples), "--seed", str(seed), "--l-max", "2"],
                work / "pairs.csv")
    rows = W.gof_rows(pairs)
    twos = {1: W.two_cycle_counts(W._seeds(seed, samples), n, d, k)}
    bad_rows = W.gof_rows(set_csv(pairs, 0, "empirical_mean", rows[0]["empirical_mean"] + 1 / samples))
    expect("census.pairs_l1 (one extra two-cycle)", W.check_gof_stats(rows[:1], twos, "pairs"),
           W.check_gof_stats(bad_rows[:1], twos, "pairs"))
    far = rows[1]["lambda"] + 7 * (rows[1]["lambda"] / samples) ** 0.5
    bad_rows = W.gof_rows(set_csv(pairs, 1, "empirical_mean", far))
    expect("census.z_bound (mean 7 sigma off lambda)", W.check_z(rows, samples, k, d),
           W.check_z(bad_rows, samples, k, d))

    walk = run(["cycles", *common, "--samples", "4", "--seed", str(seed), "--l-max", "4"], work / "walk.csv")
    small = run(["cycles", *common, "--samples", "4", "--seed", str(seed), "--l-max", "2"], work / "small.csv")
    dense = W.dense_counts(seed, 4, n, d, k)
    walk_rows, small_rows = W.gof_rows(walk), W.gof_rows(small)
    bad_walk = W.gof_rows(set_csv(walk, 1, "empirical_var", walk_rows[1]["empirical_var"] + 0.5))
    expect("census.walk_dense (wrong four-cycle variance)", W.check_gof_stats(walk_rows, dense, "walk_dense"),
           W.check_gof_stats(bad_walk, dense, "walk_dense"))
    expect("census.walk_equals_pairs (rows differ)", ("", walk_rows[:2] == small_rows, ""),
           ("", bad_walk[:2] == small_rows, ""))

    seed = 4
    simple = run(["sample", "--k", str(k), "--d", str(d), "--n", str(n), "--seed", str(seed), "--simple"],
                 work / "simple.cfg")
    good = W.check_simple(simple, seed, n, d, k)
    # a plain sample of the same seed usually has a two-cycle at this size
    plain = run(["sample", "--k", str(k), "--d", str(d), "--n", str(n), "--seed", str(R.child_seed(seed, 0))],
                work / "plain.cfg")
    bad = W.check_simple(plain, seed, n, d, k)
    expect("census.simple_no_two_cycle (instance with a two-cycle)", good[0], bad[0])
    expect("census.simple_wiring (first attempt instead of first accepted)", good[1], bad[1])


def analytic_checks(work: Path):
    text = run(["threshold", "--k", "5"], work / "t5.txt")
    wrong = set_value(text, "d_star", repr(float(W.key_values(text)["d_star"]) + 1e-9))
    expect("analytic.threshold (d* off by 1e-9)", W.check_threshold(text, 5), W.check_threshold(wrong, 5))

    t4 = run(["threshold", "--k", "4"], work / "t4.txt")
    cert = run(["verify-k4"], work / "cert.txt")
    c = float(W.key_values(cert)["conjectured_d_star"])
    wrong = set_value(cert, "conjectured_d_star", repr(c * (1 + 1e-5)))
    expect("analytic.verify_k4 (corner value off by 1e-5)", W.check_verify_k4(cert, t4),
           W.check_verify_k4(wrong, t4))

    text = run(["conjecture", "--k", "5", "--grid-depth", "40"], work / "conj.txt")
    conj = float(W.key_values(text)["conjectured"])
    wrong = set_value(text, "sup", repr(conj - 1e-6))
    expect("analytic.conjecture (sup below the corner value)", W.check_conjecture(text, 5),
           W.check_conjecture(wrong, 5))

    for k, d in ((4, 2), (4, 3)):
        ns = (400, 800, 1600)
        texts = [run(["moments", "--k", str(k), "--d", str(d), "--n", str(n), "--exact"], work / f"m{n}.txt")
                 for n in ns]
        good = W.check_moment_series(texts, k, d, ns)
        reversed_ = W.check_moment_series(texts[::-1], k, d, ns)
        expect(f"{good[1][0]} k={k} d={d} (n order reversed)", good[1], reversed_[1])
        expect(f"{good[2][0]} k={k} d={d} (n order reversed)", good[2], reversed_[2])
        shifted = [set_value(t, "ln_EZ_exact", repr(float(W.key_values(t)["ln_EZ_exact"]) + 0.01)) for t in texts]
        expect(f"analytic.ln_ez_exact k={k} d={d} (ln E[Z] off by 0.01)", good[0],
               W.check_moment_series(shifted, k, d, ns)[0])
        text = run(["moments", "--k", str(k), "--d", str(d), "--n", "12", "--exact"], work / "small.txt")
        wrong = set_value(text, "ln_ratio_exact", repr(float(W.key_values(text)["ln_ratio_exact"]) * (1 + 1e-8)))
        expect(f"analytic.ln_ratio_exact k={k} d={d} n=12 (ratio off by 1e-8)",
               W.check_moment_small(text, k, d, 12), W.check_moment_small(wrong, k, d, 12))

    rng = np.random.default_rng(3)
    spec = W.ChannelSpec("selftest", *W._screened(rng, 3, 3, False, 10), 30)
    path = work / "selftest.channel"
    path.write_text(W.channel_document(spec))
    text = run(["sdpi", "--channel", str(path), "--grid-depth", str(spec.depth)], work / "sdpi.txt")
    good = W.check_sdpi(text, spec)
    above = set_value(text, "d_star", repr(R.dobrushin_coefficient(spec.matrix) * 1.001))
    below = set_value(text, "d_star", repr(R.chi2_coefficient(spec.matrix, spec.p_star) * 0.999))
    expect("analytic.sdpi_sandwich (eta above the Dobrushin bound)", good[0], W.check_sdpi(above, spec)[0])
    expect("analytic.sdpi_sandwich (eta below the chi-square bound)", good[0], W.check_sdpi(below, spec)[0])
    off = set_value(text, "argmax", "[0.5, 0.6, -0.1]")
    expect("analytic.sdpi_argmax_pmf (negative entry)", good[1], W.check_sdpi(off, spec)[1])


def main() -> int:
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        for group in (solve_checks, census_checks, analytic_checks):
            sub = Path(tmp) / group.__name__
            sub.mkdir()
            group(sub)
    if FAULTS:
        print(f"{len(FAULTS)} unsound checks: {', '.join(FAULTS)}")
        return 1
    print("every check passes on true output and rejects a wrong one")
    return 0


if __name__ == "__main__":
    sys.exit(main())
