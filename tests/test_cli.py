"""Command-line interface: flags, exit codes, file formats, determinism."""

import argparse
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from occuthresh import cli, instances, occupancy
from occuthresh.errors import CertificateError
from occuthresh.numerics import Channel, Pmf
from occuthresh.sdpi import format_channel

from tests.case_limit import time_limit
from tests.oracles import chi2_coefficient, dobrushin_coefficient


def data_section(path) -> list[str]:
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


def run(argv) -> int:
    return cli.main(argv)


class TestThreshold:
    def test_reports_value(self, capsys):
        assert run(["threshold", "--k", "4"]) == 0
        out = capsys.readouterr().out
        assert "d_star = 2.826780210445695" in out
        assert "bounds_ok = true" in out
        assert "# manifest: subcommand = threshold" in out

    def test_domain_error_exits_2(self, capsys):
        assert run(["threshold", "--k", "3"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["threshold", "--k", "4", "--bogus"])
        assert exc.value.code == 2

    def test_k10_bounds(self, capsys):
        assert run(["threshold", "--k", "10"]) == 0
        assert "bounds_ok = true" in capsys.readouterr().out

    def test_large_k_exits_0(self, capsys):
        assert run(["threshold", "--k", "10000"]) == 0
        assert "d_star = 14.566019072414935" in capsys.readouterr().out  # 50 digits: ...414967

    def test_very_large_k_exits_0(self, capsys):
        assert run(["threshold", "--k", "1000000000"]) == 0
        assert "bounds_ok = true" in capsys.readouterr().out


class TestSatprob:
    def test_csv_shape(self, tmp_path):
        out = tmp_path / "satprob.csv"
        code = run(
            ["satprob", "--k", "4", "--d", "2", "--n", "8,16,24", "--trials", "20",
             "--seed", "7", "--threads", "2", "--out", str(out)]
        )
        assert code == 0
        lines = data_section(out)
        assert lines[0] == "n,trials,sat_count,sat_fraction,ci_low,ci_high,seed"
        assert len(lines) == 4
        for row in lines[1:]:
            assert row.split(",")[-1] == "7"

    def test_rerun_byte_identical(self, tmp_path):
        args = ["satprob", "--k", "4", "--d", "3", "--n", "8,12", "--trials", "30", "--seed", "5"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--threads", "1", "--out", str(a)]) == 0
        assert run(args + ["--threads", "3", "--out", str(b)]) == 0
        assert data_section(a) == data_section(b)

    def test_capacity_error_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr(occupancy, "_SEARCH_WORK", 18 * 5)  # 5 nodes at n = 24
        assert run(["satprob", "--k", "4", "--d", "3", "--n", "24", "--trials", "10",
                    "--seed", "1", "--threads", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: deciding at n=24 passed 5 search nodes")
        assert err.count("\n") == 1

    def test_decides_past_n32(self, tmp_path):
        out = tmp_path / "satprob.csv"
        assert run(["satprob", "--k", "4", "--d", "3", "--n", "96", "--trials", "4",
                    "--seed", "7", "--threads", "1", "--out", str(out)]) == 0
        assert data_section(out)[1].startswith("96,4,")


class TestCycles:
    def test_csv_shape_and_determinism(self, tmp_path):
        base = ["cycles", "--k", "4", "--d", "3", "--n", "60", "--samples", "40",
                "--seed", "3", "--l-max", "2"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(base + ["--threads", "1", "--out", str(a)]) == 0
        assert run(base + ["--threads", "2", "--out", str(b)]) == 0
        lines = data_section(a)
        assert lines[0] == "l,empirical_mean,lambda,z_score,empirical_var,chi2,dof"
        assert len(lines) == 3
        assert data_section(a) == data_section(b)

    def test_single_sample_exits_2_before_sampling(self, monkeypatch, capsys):
        def unexpected(*args, **kwargs):
            raise AssertionError("a configuration was sampled")

        monkeypatch.setattr(instances, "_permutations", unexpected)
        assert run(["cycles", "--k", "4", "--d", "3", "--n", "400", "--samples", "1",
                    "--seed", "3", "--l-max", "4", "--threads", "1"]) == 2
        assert "--samples >= 2" in capsys.readouterr().err

    def test_walk_past_bound_exits_2_before_sampling(self, monkeypatch, capsys):
        def unexpected(*args, **kwargs):
            raise AssertionError("a configuration was sampled")

        monkeypatch.setattr(instances, "_permutations", unexpected)
        assert run(["cycles", "--k", "4", "--d", "3", "--n", "400", "--samples", "2",
                    "--seed", "3", "--l-max", "10", "--threads", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cycle walk to l_max=10 at n=400, d=3, k=4")
        assert "over the limit of 200000000" in err

    def test_walks_past_bound_over_all_samples_exit_2_before_sampling(self, monkeypatch, capsys):
        # One l_max = 7 walk at n = 400 is 5.6e7 steps, in bound; 10000 would run for hours.
        def unexpected(*args, **kwargs):
            raise AssertionError("a configuration was sampled")

        monkeypatch.setattr(instances, "_permutations", unexpected)
        assert run(["cycles", "--k", "4", "--d", "3", "--n", "400", "--l-max", "7",
                    "--samples", "10000", "--seed", "3", "--threads", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cycle walk to l_max=7 at n=400, d=3, k=4")
        assert "in 10000 sample(s), over the limit of 200000000" in err

    def test_two_variable_constraints_exit_0(self, tmp_path):
        """k = 2 is a valid family; the census takes no r, so nothing asks for r <= k - 1."""
        out = tmp_path / "k2.csv"
        assert run(["cycles", "--k", "2", "--d", "2", "--n", "8", "--samples", "3", "--seed", "1",
                    "--l-max", "3", "--threads", "1", "--out", str(out)]) == 0
        assert len(data_section(out)) == 4


class TestMoments:
    def test_exact_fields(self, capsys):
        assert run(["moments", "--k", "4", "--d", "2", "--n", "4", "--exact"]) == 0
        out = capsys.readouterr().out
        assert "ln_EZ_exact = 1.1267831656348068" in out  # ln(108/35)
        assert "mu_l = 1.0" in out

    def test_without_exact_flag(self, capsys):
        assert run(["moments", "--k", "4", "--d", "2", "--n", "4"]) == 0
        out = capsys.readouterr().out
        assert "ln_EZ_exact = nan" in out
        assert "ln_EZ_asymptotic" in out

    def test_fractional_quota_ratio_is_nan(self, capsys):
        """E[Z] = 0 at a fractional ones quota, so E[Z^2]/E[Z]^2 is 0/0."""
        assert run(["moments", "--k", "6", "--d", "3", "--n", "4", "--exact"]) == 0
        out = capsys.readouterr().out
        assert "ln_EZ_exact = -inf" in out
        assert "ln_ratio_exact = nan" in out

    def test_long_cycle_exact_finishes(self, capsys):
        """l = 40 passes the size checks; its sum has 2^40 words but few classes."""
        argv = ["moments", "--k", "4", "--d", "2", "--n", "80", "--l", "40", "--exact"]
        with time_limit(argv):
            assert run(argv) == 0
        assert "ln_EZXl = " in capsys.readouterr().out

    def test_exact_over_term_limit_exits_2(self, capsys):
        """n = 200000 would sum 2.5e9 overlap terms; it is refused, not run."""
        argv = ["moments", "--k", "4", "--d", "2", "--n", "200000", "--exact"]
        with time_limit(argv):
            assert run(argv) == 2
        assert "sums 2500100001 overlap terms" in capsys.readouterr().err


class TestSampleAndCount:
    def test_round_trip(self, tmp_path, capsys):
        cfg_path = tmp_path / "instance.cfg"
        assert run(["sample", "--k", "4", "--d", "2", "--n", "8", "--seed", "42",
                    "--out", str(cfg_path)]) == 0
        text = cfg_path.read_text()
        assert "wiring = [" in text
        assert run(["count", "--in", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "solutions = " in out

    def test_simple_sampling(self, tmp_path):
        cfg_path = tmp_path / "simple.cfg"
        assert run(["sample", "--k", "4", "--d", "3", "--n", "40", "--seed", "8",
                    "--simple", "--out", str(cfg_path)]) == 0
        from occuthresh.instances import count_two_cycles, deserialize

        assert count_two_cycles(deserialize(cfg_path.read_text())) == 0

    def test_sample_deterministic(self, tmp_path):
        a, b = tmp_path / "a.cfg", tmp_path / "b.cfg"
        args = ["sample", "--k", "4", "--d", "2", "--n", "12", "--seed", "1"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert data_section(a) == data_section(b)

    def test_count_malformed_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense\n")
        assert run(["count", "--in", str(bad)]) == 2

    def test_count_past_state_budget_exits_2(self, tmp_path, monkeypatch, capsys):
        cfg_path = tmp_path / "instance.cfg"
        assert run(["sample", "--k", "4", "--d", "2", "--n", "24", "--seed", "3",
                    "--out", str(cfg_path)]) == 0
        assert run(["count", "--in", str(cfg_path)]) == 0
        monkeypatch.setattr(occupancy, "_FRONTIER_STATES", 10)
        capsys.readouterr()
        assert run(["count", "--in", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: exact counting at n=24 reached ")
        assert err.rstrip().endswith("frontier states, over the limit of 10")


class TestSdpiSubcommand:
    def test_channel_file(self, tmp_path, capsys):
        path = tmp_path / "bsc.channel"
        path.write_text(
            format_channel(Pmf(np.array([0.5, 0.5])), Channel(np.array([[0.9, 0.1], [0.1, 0.9]])))
        )
        assert run(["sdpi", "--channel", str(path), "--grid-depth", "100"]) == 0
        out = capsys.readouterr().out
        assert "d_star = " in out
        assert "argmax = [" in out

    @pytest.mark.parametrize("n_in, n_out", [(10, 3), (5, 5)])
    def test_runs_at_default_depth(self, tmp_path, capsys, n_in, n_out):
        # The tilts move in rank(W) - 1 dimensions, 2 for a 10 x 3 channel however
        # many inputs there are, and 4 for a 5 x 5 one along no more directions.
        path = tmp_path / "generic.channel"
        rng = np.random.default_rng(10 * n_in + n_out)
        matrix = rng.dirichlet(np.ones(n_out), size=n_in).T
        p_star = rng.dirichlet(np.full(n_in, 2.0))
        path.write_text(format_channel(Pmf(p_star), Channel(matrix)))
        assert run(["sdpi", "--channel", str(path)]) == 0
        value = float(capsys.readouterr().out.split("d_star = ")[1].split()[0])
        assert chi2_coefficient(matrix, p_star) <= value <= dobrushin_coefficient(matrix)


class TestVerifyK4:
    def test_certificate_file(self, tmp_path):
        out = tmp_path / "cert.txt"
        assert run(["verify-k4", "--out", str(out)]) == 0
        lines = data_section(out)
        keys = {line.split(" = ")[0] for line in lines}
        assert {"w_bar", "w_0", "grid_resolution", "max_ratio_found",
                "conjectured_d_star", "ratio_at_w_bar"} <= keys

    @pytest.mark.parametrize("tol", ["1e-10", "1e-11", "1e-300"])
    def test_passes_at_any_root_tol(self, capsys, tol):
        assert run(["verify-k4", "--root-tol", tol]) == 0
        assert "margin.rplus_max_increase = -" in capsys.readouterr().out

    def test_failure_exits_3(self, monkeypatch, capsys):
        def boom(**kwargs):
            raise CertificateError("d_min_vs_d_plus", 0.4, "forced failure")

        monkeypatch.setattr(cli, "certify_k4_contraction", boom)
        assert run(["verify-k4"]) == 3
        err = capsys.readouterr().err
        assert "d_min_vs_d_plus" in err
        assert "0.4" in err


class TestConjecture:
    def test_k5_report(self, capsys):
        assert run(["conjecture", "--k", "5", "--grid-depth", "60"]) == 0
        out = capsys.readouterr().out
        assert "conjectured = 0.2922852" in out
        assert "gap = " in out

    def test_k4_gap_zero(self, capsys):
        assert run(["conjecture", "--k", "4", "--grid-depth", "120"]) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("gap = "))
        assert abs(float(line.split(" = ")[1])) < 1e-6


class TestParser:
    def test_built_once_per_process(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli._build_parser.cache_clear()
        try:
            assert run(["threshold", "--k", "4"]) == 0
            first = len(built)
            assert run(["conjecture", "--k", "5", "--grid-depth", "20"]) == 0
        finally:
            cli._build_parser.cache_clear()  # later tests build their own
        assert first == 10  # the parser and its nine subparsers
        assert len(built) == first

    def test_runner_found_at_call_time(self, monkeypatch, capsys):
        assert run(["threshold", "--k", "4"]) == 0
        monkeypatch.setattr(cli, "_run_threshold", lambda args: [f"swapped k = {args.k}"])
        assert run(["threshold", "--k", "5"]) == 0
        assert capsys.readouterr().out.endswith("swapped k = 5\n")


class TestThreadsEnv:
    def test_env_var_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OCCUTHRESH_THREADS", "3")
        out = tmp_path / "x.csv"
        assert run(["satprob", "--k", "4", "--d", "2", "--n", "8", "--trials", "5",
                    "--seed", "2", "--out", str(out)]) == 0
        assert "# manifest: threads = 3" in out.read_text()

    def test_explicit_flag_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OCCUTHRESH_THREADS", "3")
        out = tmp_path / "x.csv"
        assert run(["satprob", "--k", "4", "--d", "2", "--n", "8", "--trials", "5",
                    "--seed", "2", "--threads", "1", "--out", str(out)]) == 0
        assert "# manifest: threads = 1" in out.read_text()


class TestErrorContract:
    SATPROB = ["satprob", "--k", "4", "--d", "3", "--n", "8", "--trials", "3", "--seed", "1"]

    def test_zero_threads_exits_2(self, capsys):
        assert run(self.SATPROB + ["--threads", "0"]) == 2
        assert "thread count must be >= 1" in capsys.readouterr().err

    def test_non_integer_threads_env_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("OCCUTHRESH_THREADS", "abc")
        assert run(self.SATPROB) == 2
        assert "OCCUTHRESH_THREADS" in capsys.readouterr().err

    def test_count_missing_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        assert run(["count", "--in", str(missing)]) == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_non_positive_threads_env_exits_2(self, monkeypatch, capsys, value):
        monkeypatch.setenv("OCCUTHRESH_THREADS", value)
        assert run(self.SATPROB) == 2
        assert "OCCUTHRESH_THREADS must be >= 1" in capsys.readouterr().err

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        assert run(["threshold", "--k", "4", "--out", str(tmp_path)]) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_nan_channel_entry_exits_2(self, tmp_path, capsys):
        channel = tmp_path / "channel.txt"
        channel.write_text("n_in = 2\nn_out = 2\nmatrix = [nan, 0.1, 0.2, 0.8]\np_star = [0.5, 0.5]\n")
        assert run(["sdpi", "--channel", str(channel)]) == 2
        assert "channel entries must be finite" in capsys.readouterr().err

    def test_empty_channel_dimensions_exit_2(self, tmp_path, capsys):
        channel = tmp_path / "channel.txt"
        channel.write_text("n_in = 0\nn_out = -1\nmatrix = []\np_star = []\n")
        assert run(["sdpi", "--channel", str(channel)]) == 2
        assert "line 1: n_in must be >= 1, got 0" in capsys.readouterr().err

    def test_point_mass_reference_exits_2(self, tmp_path, capsys):
        channel = tmp_path / "channel.txt"
        channel.write_text("n_in = 2\nn_out = 2\nmatrix = [0.9, 0.1, 0.2, 0.8]\np_star = [1.0, 0.0]\n")
        assert run(["sdpi", "--channel", str(channel)]) == 2
        assert "reference pmf needs full support, but p_star[1] = 0" in capsys.readouterr().err

    @pytest.mark.parametrize("tiny", ["1e-100", "1e-300", "1e-310"])
    def test_tiny_reference_entry_exits_2(self, tmp_path, capsys, tiny):
        # the sqrt(p*) weighting drops the channel's one tilt direction below
        # rounding; searching without it would give a rounding-level d_star
        channel = tmp_path / "channel.txt"
        channel.write_text(f"n_in = 2\nn_out = 2\nmatrix = [0.9, 0.1, 0.2, 0.8]\np_star = [{tiny}, 1.0]\n")
        assert run(["sdpi", "--channel", str(channel)]) == 2
        assert f"p_star[0] = {tiny} is too small" in capsys.readouterr().err

    def test_small_reference_entry_keeps_its_direction(self, tmp_path):
        channel = tmp_path / "channel.txt"
        channel.write_text("n_in = 2\nn_out = 2\nmatrix = [0.9, 0.1, 0.2, 0.8]\np_star = [1e-20, 1.0]\n")
        out = tmp_path / "out.txt"
        assert run(["sdpi", "--channel", str(channel), "--out", str(out)]) == 0
        assert data_section(out)[0] == "d_star = 0.024879113184930746"

    def test_oversized_grid_exits_2_at_once(self, tmp_path, capsys):
        # 10 inputs and 10 outputs: rank 10, tilts in 9 dimensions, whose
        # fewest directions are the 3^9 - 1 = 19682 of the unit cube shell;
        # at depth 20000 that is 19682 * 20001 = 3.9e8 grid points.
        channel = tmp_path / "channel.txt"
        matrix = np.random.default_rng(10).dirichlet(np.ones(10), size=10).T
        channel.write_text(format_channel(Pmf(np.full(10, 0.1)), Channel(matrix)))
        start = time.perf_counter()
        assert run(["sdpi", "--channel", str(channel), "--grid-depth", "20000"]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "a depth-20000 tilt grid in 9 dimensions has 393659682 points" in err
        assert "use a smaller --grid-depth" in err

    @pytest.mark.parametrize("argv", [["conjecture", "--k", "5", "--refine-tol", "1e-8"],
                                      ["sdpi", "--channel", "channel.txt", "--refine-tol", "1e-8"],
                                      ["cycles", "--k", "4", "--d", "3", "--n", "40", "--samples", "3",
                                       "--seed", "1", "--r", "2"],
                                      ["satprob", "--k", "4", "--d", "3", "--n", "8", "--trials", "3",
                                       "--seed", "1", "--cap", "32"],
                                      ["count", "--in", "instance.cfg", "--cap", "32"]],
                             ids=["conjecture", "sdpi", "cycles", "satprob", "count"])
    def test_removed_flag_exits_2_at_parse_time(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

    def test_oversized_wiring_entry_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "big.cfg"
        cfg.write_text("n = 4\nd = 3\nk = 4\nr = 2\nm = 3\nwiring = [0, 1, 2, 99999999999999999999]\n")
        assert run(["count", "--in", str(cfg)]) == 2
        assert "line 6: wiring entries must fit in a signed 64-bit integer" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_root_tol_exits_2(self, capsys, tol):
        assert run(["verify-k4", "--root-tol", tol]) == 2
        assert f"need a finite tol > 0, got {tol}" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(-(2**64))])
    def test_seed_outside_64_bits_is_a_usage_error(self, capsys, seed):
        with pytest.raises(SystemExit) as exc:
            run(["sample", "--k", "4", "--d", "3", "--n", "12", "--seed", seed])
        assert exc.value.code == 2
        assert f"seed must be in [0, 2**64), got {seed}" in capsys.readouterr().err

    def test_largest_seed_is_accepted(self, capsys):
        assert run(["sample", "--k", "4", "--d", "3", "--n", "12", "--seed", str(2**64 - 1)]) == 0
        assert f"# manifest: seed = {2**64 - 1}" in capsys.readouterr().out

    @pytest.mark.parametrize("n", ["", ",", " , "])
    def test_empty_n_list_is_a_usage_error(self, capsys, n):
        with pytest.raises(SystemExit) as exc:
            run(["satprob", "--k", "4", "--d", "3", "--n", n, "--trials", "3", "--seed", "1"])
        assert exc.value.code == 2
        assert "need at least one n" in capsys.readouterr().err

    def test_out_of_memory_exits_2(self, monkeypatch, capsys):
        def allocate(args):
            raise MemoryError("Unable to allocate 745. GiB for an array with shape (100000000001,)")

        monkeypatch.setattr(cli, "_run_conjecture", allocate)
        assert run(["conjecture", "--k", "4", "--grid-depth", "100000000000"]) == 2
        assert "error: out of memory: Unable to allocate 745. GiB" in capsys.readouterr().err

    def test_import_leaves_scipy_out(self):
        code = "import sys, occuthresh.cli; sys.exit('scipy' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_import_leaves_multiprocessing_out(self):
        """Only parallel_map with more than one worker imports multiprocessing."""
        code = "import sys, occuthresh.cli; sys.exit('multiprocessing' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
