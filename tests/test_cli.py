"""End-to-end checks of the command line front end."""

import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import bscbounds
from bscbounds import cli, dist, hmm, scalar, validate
from bscbounds.dist import markov_joint_pmf, random_pmf, write_pmf
from bscbounds.scalar import binary_entropy

H11 = binary_entropy(0.11)


def _track(current, slack, detail):
    """Reference fold for validate._worst, one slack at a time: keep the
    smaller slack. A NaN slack counts as the worst and sticks."""
    worst = current[0]
    if math.isnan(worst) or slack >= worst:
        return current
    return slack, detail


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBound:
    def test_theorem5_value_and_echo(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "theorem5", "--alpha", "0.11", "--q", "0.1")
        assert code == 0
        assert out.startswith("theorem5(alpha=0.11, q=0.1) = ")
        value = float(out.rsplit("=", 1)[1])
        assert value == pytest.approx(0.712490632070348, abs=1e-11)

    def test_mgl_noiseless_passthrough(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "mgl", "--alpha", "0", "--entropy", "0.37")
        assert code == 0
        assert float(out.rsplit("=", 1)[1]) == pytest.approx(0.37, abs=1e-10)

    def test_theorem6_fair_source_is_one(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "theorem6", "--alpha", "0.11", "--q", "0.5")
        assert code == 0
        assert float(out.rsplit("=", 1)[1]) == 1.0

    def test_theorem6_variant_flag(self, capsys):
        _, out_f, _ = run_cli(capsys, "bound", "theorem6", "--alpha", "0.11",
                              "--q", "0.1", "--variant", "factor4")
        _, out_p, _ = run_cli(capsys, "bound", "theorem6", "--alpha", "0.11",
                              "--q", "0.1", "--variant", "printed")
        vf = float(out_f.rsplit("=", 1)[1])
        vp = float(out_p.rsplit("=", 1)[1])
        assert vf == pytest.approx(0.7690814452112156, abs=1e-11)
        assert vp == pytest.approx(0.71522197314705, abs=1e-11)
        assert vf > vp

    def test_cover_thomas_order_flag(self, capsys):
        _, out1, _ = run_cli(capsys, "bound", "cover-thomas", "--alpha", "0.11", "--q", "0.1")
        _, out3, _ = run_cli(capsys, "bound", "cover-thomas", "--alpha", "0.11",
                             "--q", "0.1", "--n", "3")
        # the ceiling loosens as the chain mixes over more steps
        assert float(out3.rsplit("=", 1)[1]) > float(out1.rsplit("=", 1)[1])

    def test_now05_matches_module(self, capsys):
        from bscbounds.hmm import MarkovHmmParams, rare_transition_baseline

        code, out, _ = run_cli(capsys, "bound", "now05", "--alpha", "0.2", "--q", "0.01")
        assert code == 0
        want = rare_transition_baseline(MarkovHmmParams(0.01, 0.2))
        assert float(out.rsplit("=", 1)[1]) == pytest.approx(want, abs=1e-11)

    def test_missing_flag_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "bound", "theorem5", "--alpha", "0.11")
        assert code == 2
        assert "--q" in err

    def test_out_of_range_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "bound", "mgl", "--alpha", "0.7", "--entropy", "0.5")
        assert code == 2
        assert "alpha" in err

    def test_theorem6_below_the_odds_range(self, capsys):
        # the odds floats overflowed here; the floor-0 value h(alpha * q) is printed
        code, out, err = run_cli(capsys, "bound", "theorem6", "--alpha", "1e-300", "--q", "0.3")
        assert (code, err) == (0, "")
        assert float(out.rsplit("=", 1)[1]) == pytest.approx(binary_entropy(0.3), abs=1e-12)

    def test_theorem6_near_half_alpha(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "theorem6", "--alpha", "0.499999999",
                               "--q", "0.1")
        assert code == 0
        assert float(out.rsplit("=", 1)[1]) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("argv, line", [
        (("mgl", "--alpha", "0.11", "--entropy", "0.5"),
         "mgl(alpha=0.11, entropy=0.5) = 0.713492440024"),
        (("mmse-gerber", "--alpha", "0.11", "--mmse", "0.16"),
         "mmse-gerber(alpha=0.11, mmse=0.16) = 0.819969744939"),
        (("upper", "--alpha", "0.11", "--mmse", "0.16"),
         "upper(alpha=0.11, mmse=0.16) = 0.835666147232"),
        (("memory-noise", "--entropy", "0.3", "--mmse", "0.1"),
         "memory-noise(entropy=0.3, mmse=0.1) = 0.58"),
        (("theorem5", "--alpha", "0.11", "--q", "0.1"),
         "theorem5(alpha=0.11, q=0.1) = 0.71249063207"),
        (("theorem6", "--alpha", "0.11", "--q", "0.1", "--variant", "printed"),
         "theorem6(alpha=0.11, q=0.1, variant=printed) = 0.715221973147"),
        (("cover-thomas", "--alpha", "0.11", "--q", "0.1", "--n", "3"),
         "cover-thomas(alpha=0.11, q=0.1, m=3) = 0.881681713134"),
        (("now05", "--alpha", "0.2", "--q", "0.01"),
         "now05(alpha=0.2, q=0.01) = 0.751825447741"),
    ])
    def test_golden_line(self, capsys, argv, line):
        code, out, err = run_cli(capsys, "bound", *argv)
        assert (code, out, err) == (0, line + "\n", "")

    @pytest.mark.parametrize("kind, flags", [
        ("mgl", "--alpha, --entropy"),
        ("mmse-gerber", "--alpha, --mmse"),
        ("upper", "--alpha, --mmse"),
        ("memory-noise", "--entropy, --mmse"),
        ("theorem5", "--alpha, --q"),
        ("theorem6", "--alpha, --q"),
        ("cover-thomas", "--alpha, --q"),
        ("now05", "--alpha, --q"),
    ])
    def test_missing_flags_all_named(self, capsys, kind, flags):
        code, out, err = run_cli(capsys, "bound", kind)
        assert (code, out) == (2, "")
        assert err == f"domain error: bound kind {kind!r} requires {flags}\n"

    def test_cover_thomas_zero_order_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "bound", "cover-thomas", "--alpha", "0.1",
                                 "--q", "0.1", "--n", "0")
        assert (code, out) == (2, "")
        assert "m must be a positive integer" in err

    def test_cover_thomas_huge_order_saturates(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "cover-thomas", "--alpha", "0.11",
                               "--q", "0.1", "--n", str(10**400))
        assert code == 0
        assert float(out.rsplit("=", 1)[1]) == 1.0

    def test_readme_table_matches_registry(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| `([a-z0-9-]+)` \| `([^`]*)` \|", readme, flags=re.M)
        table = [(kind, tuple(f[2:] for f in flags.split() if not f.startswith("[")))
                 for kind, flags in rows]
        assert table == [(kind, flags) for kind, (flags, _) in cli._BOUNDS.items()]

    def test_readme_module_table_names_every_module(self):
        root = Path(__file__).resolve().parents[1]
        readme = (root / "README.md").read_text(encoding="utf-8")
        listed = re.findall(r"^\| `bscbounds\.([a-z_]+)` \|", readme, flags=re.M)
        modules = {p.stem for p in (root / "src" / "bscbounds").glob("*.py")}
        assert sorted(listed) == sorted(modules - {"__init__", "__main__"})


class TestFigure:
    def test_fig1a_endpoints(self, capsys, tmp_path):
        out = tmp_path / "a.csv"
        code, msg, _ = run_cli(capsys, "figure", "fig1a", "--points", "11",
                               "--out", str(out))
        assert code == 0
        assert msg.strip() == f"wrote {out}: 11 rows"
        lines = out.read_text(encoding="ascii").splitlines()
        assert lines[0] == "x,mgl_lower,mgl_upper,new"
        assert len(lines) == 12
        first = [float(v) for v in lines[1].split(",")]
        last = [float(v) for v in lines[-1].split(",")]
        assert first[0] == 0.0 and last[0] == 1.0
        for v in first[1:]:
            assert v == pytest.approx(H11, abs=1e-8)
        for v in last[1:]:
            assert v == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("which, text", [
        ("fig1a", """x,mgl_lower,mgl_upper,new
0,0.499915958,0.499915958,0.499915958
0.166666667,0.555257479,0.594568779,0.583263298
0.333333333,0.62941301,0.683491636,0.666610639
0.5,0.71349244,0.76781354,0.749957979
0.666666667,0.804363572,0.848315073,0.833305319
0.833333333,0.900248268,0.925566171,0.91665266
1,1,1,1
"""),
        ("fig1b", """alpha,mgl_lower,mgl_upper,new
0,0.5,0.600876037,0.5
0.0833333333,0.669067777,0.732543191,0.706908425
0.166666667,0.79507117,0.833162715,0.825011211
0.25,0.88733381,0.907852301,0.905639062
0.333333333,0.950679224,0.959545574,0.959147917
0.416666667,0.987776407,0.989957963,0.989934378
0.5,1,1,1
"""),
        ("fig2a", """u,new_lower,new_upper,mgl
0,0.499915958,0.499915958,0.499915958
0.166666667,0.547958364,0.583263298,0.555257479
0.333333333,0.615354143,0.666610639,0.62941301
0.5,0.695792343,0.749957979,0.71349244
0.666666667,0.787350099,0.833305319,0.804363572
0.833333333,0.888979149,0.91665266,0.900248268
1,1,1,1
"""),
        ("fig2b", """alpha,new_lower,new_upper,mgl
0,0.391686934,0.5,0.5
0.0833333333,0.643417131,0.706908425,0.669067777
0.166666667,0.787104066,0.825011211,0.79507117
0.25,0.885198017,0.905639062,0.88733381
0.333333333,0.950298288,0.959147917,0.950679224
0.416666667,0.987753902,0.989934378,0.987776407
0.5,1,1,1
"""),
        # 5 simulated rows of 300,000 steps at the default --samples, --burnin
        # and --seed; q = 0 and q = 1/2 take their exact limits
        ("fig3", """q,mgl,theorem5,theorem6_factor4,theorem6_printed,mc_estimate,mc_stderr
0,0.499915958,0.499915958,0.499915958,0.499915958,0.499915958,0
0.0833333333,0.669015835,0.686807448,0.740122283,0.686792447,0.759226167,0.000251411111
0.166666667,0.795040279,0.80009391,0.856489047,0.810402471,0.864714455,0.000141537729
0.25,0.887317256,0.884787421,0.926162876,0.897028661,0.928864623,6.00319182e-05
0.333333333,0.950672093,0.946923249,0.969000868,0.955254287,0.969575785,1.75806378e-05
0.416666667,0.987774655,0.986291356,0.99250208,0.988956511,0.992538795,2.17358565e-06
0.5,1,1,1,1,1,0
"""),
    ])
    def test_golden_csv(self, capsys, tmp_path, which, text):
        out = tmp_path / f"{which}.csv"
        code, msg, _ = run_cli(capsys, "figure", which, "--points", "7", "--out", str(out))
        assert (code, msg) == (0, f"wrote {out}: 7 rows\n")
        assert out.read_text(encoding="ascii") == text

    def test_fig2a_endpoints(self, capsys, tmp_path):
        out = tmp_path / "b.csv"
        run_cli(capsys, "figure", "fig2a", "--points", "5", "--out", str(out))
        lines = out.read_text(encoding="ascii").splitlines()
        assert lines[0] == "u,new_lower,new_upper,mgl"
        first = [float(v) for v in lines[1].split(",")]
        last = [float(v) for v in lines[-1].split(",")]
        for v in first[1:]:
            assert v == pytest.approx(H11, abs=1e-8)
        for v in last[1:]:
            assert v == pytest.approx(1.0, abs=1e-8)

    def test_fields_are_nine_digit_floats(self, capsys, tmp_path):
        out = tmp_path / "c.csv"
        run_cli(capsys, "figure", "fig1b", "--points", "7", "--out", str(out))
        lines = out.read_text(encoding="ascii").splitlines()
        for line in lines[1:]:
            for token in line.split(","):
                assert token == "%.9g" % float(token)

    def test_fig3_degenerate_rows_are_exact(self, capsys, tmp_path):
        out = tmp_path / "d.csv"
        code, _, _ = run_cli(capsys, "figure", "fig3", "--points", "3",
                             "--samples", "2000", "--burnin", "500",
                             "--out", str(out))
        assert code == 0
        lines = out.read_text(encoding="ascii").splitlines()
        assert lines[0] == ("q,mgl,theorem5,theorem6_factor4,theorem6_printed,"
                            "mc_estimate,mc_stderr")
        q0 = [float(v) for v in lines[1].split(",")]
        qh = [float(v) for v in lines[3].split(",")]
        # frozen chain: every curve collapses to the noise entropy
        assert q0[1:6] == pytest.approx([H11] * 5, abs=1e-8)
        assert q0[6] == 0.0
        # fair chain: everything saturates at one bit
        assert qh[1:6] == pytest.approx([1.0] * 5, abs=1e-8)
        assert qh[6] == 0.0

    def test_fig3_half_q_row_at_alpha_022(self, capsys, tmp_path):
        # the last row, q = 1/2, needs the exact odds cap at this channel rate
        code, _, _ = run_cli(capsys, "figure", "fig3", "--alpha", "0.22", "--points", "5",
                             "--samples", "2000", "--burnin", "500",
                             "--out", str(tmp_path / "a022.csv"))
        assert code == 0

    @pytest.mark.parametrize("alpha", ["1e-9", "1e-100", "5e-324"])
    def test_fig3_at_tiny_channel_rates(self, capsys, tmp_path, alpha):
        # at q = 0 the output is BSC(alpha) noise on a constant: every bound
        # and the Monte Carlo read h(alpha)
        out = tmp_path / "tiny.csv"
        code, _, err = run_cli(capsys, "figure", "fig3", "--alpha", alpha, "--points", "5",
                               "--samples", "100", "--burnin", "0", "--out", str(out))
        assert (code, err) == (0, "")
        first = out.read_text(encoding="ascii").splitlines()[1].split(",")
        assert first[1:7] == [f"{binary_entropy(float(alpha)):.9g}"] * 5 + ["0"]

    def test_fig3_near_half_alpha(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "figure", "fig3", "--alpha", "0.499999999",
                             "--points", "5", "--samples", "2000", "--burnin", "500",
                             "--out", str(tmp_path / "a05.csv"))
        assert code == 0

    def test_fig3_runs_one_root_search_per_row(self, capsys, monkeypatch, tmp_path):
        calls = []
        real = hmm.minimizing_odds

        def counted(params):
            calls.append(params.q)
            return real(params)

        monkeypatch.setattr(hmm, "minimizing_odds", counted)
        out = tmp_path / "one.csv"
        run_cli(capsys, "figure", "fig3", "--points", "5", "--samples", "2000",
                "--burnin", "500", "--out", str(out))
        # the q = 0 row takes its exact limit and searches nothing
        assert calls == [0.125, 0.25, 0.375, 0.5]
        for line in out.read_text(encoding="ascii").splitlines()[1:]:
            row = line.split(",")
            params = hmm.MarkovHmmParams(float(row[0]), 0.11)
            assert row[3:5] == [cli._fmt9(hmm.belief_bound(params, v).value)
                                for v in ("factor4", "printed")]

    def test_fig3_simulates_every_row_in_one_call(self, capsys, monkeypatch, tmp_path):
        calls = []
        real = cli.entropy_rate_mc_many

        def counted(params, samples, burnin, seeds):
            calls.append(([p.q for p in params], samples, burnin, seeds))
            return real(params, samples, burnin, seeds)

        monkeypatch.setattr(cli, "entropy_rate_mc_many", counted)
        run_cli(capsys, "figure", "fig3", "--points", "5", "--samples", "2000",
                "--burnin", "500", "--seed", "3", "--out", str(tmp_path / "one.csv"))
        assert calls == [([0.0, 0.125, 0.25, 0.375, 0.5], 2000, 500,
                          [(3, i) for i in range(5)])]

    def test_fig3_seeded_rerun_is_byte_identical(self, capsys, tmp_path):
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        argv = ("figure", "fig3", "--seed", "1", "--points", "3",
                "--samples", "2000", "--burnin", "500")
        run_cli(capsys, *argv, "--out", str(out1))
        run_cli(capsys, *argv, "--out", str(out2))
        b1 = out1.read_bytes()
        assert b1 == out2.read_bytes()
        assert b1.endswith(b"\n") and b"\r" not in b1

    def test_seed_changes_mc_columns(self, capsys, tmp_path):
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        run_cli(capsys, "figure", "fig3", "--seed", "1", "--points", "3",
                "--samples", "2000", "--burnin", "500", "--out", str(out1))
        run_cli(capsys, "figure", "fig3", "--seed", "2", "--points", "3",
                "--samples", "2000", "--burnin", "500", "--out", str(out2))
        row1 = out1.read_text(encoding="ascii").splitlines()[2]
        row2 = out2.read_text(encoding="ascii").splitlines()[2]
        assert row1.split(",")[:5] == row2.split(",")[:5]
        assert row1.split(",")[5] != row2.split(",")[5]

    def test_too_few_points_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "figure", "fig1a", "--points", "1",
                               "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "points" in err

    @pytest.mark.parametrize("flags", [
        ("--points", "100002"),
        ("--samples", "10000000", "--burnin", "1"),
        ("--samples", "1", "--burnin", "10000000"),
        ("--points", "3334"),
    ])
    def test_work_past_cap_exits_2(self, capsys, tmp_path, monkeypatch, flags):
        def refuse(*args, **kwargs):
            raise AssertionError("the cap must be checked before any work")

        # the batched entry fig3 calls, and the kernel behind every simulation
        monkeypatch.setattr(cli, "entropy_rate_mc_many", refuse)
        monkeypatch.setattr(hmm, "_scan", refuse)
        out = tmp_path / "big.csv"
        code, _, err = run_cli(capsys, "figure", "fig3", *flags, "--out", str(out))
        assert code == 2
        assert flags[0] in err
        assert not out.exists()

    def test_total_work_cap_is_fig3_only(self, capsys, tmp_path):
        # fig1a runs no Monte Carlo, so points past fig3's total-work cap pass
        out = tmp_path / "many.csv"
        code, msg, _ = run_cli(capsys, "figure", "fig1a", "--points", "3334", "--out", str(out))
        assert code == 0
        assert msg == f"wrote {out}: 3334 rows\n"

    def test_unwritable_path_exits_3(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "figure", "fig1a", "--points", "2",
                               "--out", str(tmp_path / "no" / "such" / "dir.csv"))
        assert code == 3
        assert "file error" in err

    def test_missing_out_dir_exits_3_before_the_sweep(self, capsys, monkeypatch, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("the directory must be checked before any work")

        monkeypatch.setattr(cli, "entropy_rate_mc_many", refuse)
        out = tmp_path / "no" / "such" / "fig3.csv"
        code, msg, err = run_cli(capsys, "figure", "fig3", "--points", "3", "--out", str(out))
        assert (code, msg) == (3, "")
        assert err == f"file error: [Errno 2] No such file or directory: '{out}'\n"

    @pytest.mark.parametrize("kind", ["directory", "empty"])
    def test_directory_or_empty_out_exits_3_before_the_sweep(self, capsys, monkeypatch,
                                                             tmp_path, kind):
        def refuse(*args, **kwargs):
            raise AssertionError("the path must be checked before any work")

        monkeypatch.setattr(cli, "entropy_rate_mc_many", refuse)
        out, message = {"directory": (f"{tmp_path}/", "[Errno 21] Is a directory"),
                        "empty": ("", "[Errno 2] No such file or directory")}[kind]
        code, msg, err = run_cli(capsys, "figure", "fig3", "--points", "3", "--out", out)
        assert (code, msg) == (3, "")
        assert err == f"file error: {message}: '{out}'\n"

    def test_out_under_a_regular_file_exits_3_before_any_row(self, capsys, monkeypatch,
                                                             tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("the path must be checked before any row")

        monkeypatch.setattr(cli, "_mgl_curve", refuse)
        (tmp_path / "file").write_text("")
        out = str(tmp_path / "file" / "x.csv")
        code, msg, err = run_cli(capsys, "figure", "fig1a", "--out", out)
        assert (code, msg) == (3, "")
        assert err == f"file error: [Errno 20] Not a directory: '{out}'\n"


# the (alpha, q) points at which validate's hmm suite runs the Monte Carlo
HMM_GRID = [(a, q) for a in (0.05, 0.11, 0.25) for q in (0.01, 0.05, 0.1, 0.2, 0.3, 0.45)]


@pytest.mark.parametrize("argv", [("figure", "fig3"), ("validate", "hmm")])
def test_negative_seed_exits_2_before_any_work(capsys, monkeypatch, tmp_path, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("the seed must be checked before any work")

    monkeypatch.setattr(cli, "entropy_rate_mc_many", refuse)
    monkeypatch.setattr(hmm, "_scan", refuse)
    monkeypatch.setattr(cli.validate_mod, "run_suite", refuse)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv, "--seed", "-1")
    assert (code, out) == (2, "")
    assert "--seed" in err


class TestValidate:
    def test_scalar_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "scalar", "--budget", "50")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1] == "4/4 checks passed"

    def test_nan_slack_fails_the_check(self, capsys, monkeypatch):
        # every instance of taylor-matches-entropy computes NaN
        monkeypatch.setattr(scalar, "entropy_taylor", lambda p, terms: math.nan)
        code, out, _ = run_cli(capsys, "validate", "scalar", "--budget", "50")
        assert code == 1
        lines = out.strip().splitlines()
        assert lines[2] == "FAIL taylor-matches-entropy           worst_slack= nan  (p=0.3)"
        assert [line[:4] for line in lines[:-1]] == ["PASS", "PASS", "FAIL", "PASS"]
        assert lines[-1] == "3/4 checks passed"

    def test_nan_slack_sticks_as_the_worst(self):
        worst = validate._worst([1.0, math.nan, -1.0, math.nan], "abcd".__getitem__)
        assert math.isnan(worst[0]) and worst[1] == "b"

    @pytest.mark.parametrize("seed", range(4))
    def test_track_min_equals_the_track_fold(self, seed):
        rng = np.random.default_rng(seed)
        cases = [rng.normal(size=50), rng.integers(-3, 3, size=50).astype(float),
                 np.array([0.0, -0.0, 0.0]), np.array([-0.0, 0.0]),
                 np.array([math.inf, math.inf]), np.array([-math.inf, 1.0, -math.inf])]
        for nan_at in (0, 7, 49):
            arr = rng.integers(-3, 3, size=50).astype(float)
            arr[nan_at] = math.nan
            arr[nan_at + 1:] -= 10.0
            cases.append(arr)
        cases += [np.full(5, math.nan), np.array([])]
        for slacks in cases:
            want = (math.inf, "")
            for i, slack in enumerate(slacks.tolist()):
                want = _track(want, slack, f"#{i}")
            formatted = []

            def detail_of(i):
                formatted.append(i)
                return f"#{i}"

            got = validate._worst(slacks, detail_of)
            assert got[1] == want[1]
            assert got[0] == want[0] or math.isnan(got[0]) and math.isnan(want[0])
            assert [f"#{i}" for i in formatted] == ([got[1]] if got[1] else [])

    # `validate all --budget 500 --seed 0`, byte for byte
    GOLDEN_ALL = """\
PASS inverse-identity                 worst_slack= 9.991e-11  (u=0.8300)
PASS convolve-between-max-and-half    worst_slack= 1.363e-05  (a=0.4283 b=0.0001)
PASS taylor-matches-entropy           worst_slack= 9.998e-13  (p=0.3)
PASS convolved-entropy-concave        worst_slack= 1.443e-06  (alpha=0.3 x=0.4988)
PASS mmse-floor-any-order             worst_slack= 7.173e-05  (pmf#78 (1, 2))
PASS mmse-entropy-cap-any-order       worst_slack= 1.257e-02  (pmf#3 (2, 1))
PASS worst-case-dominates             worst_slack= 9.999e-13  (pmf#5 (4, 2, 1, 3))
PASS product-order-invariant          worst_slack= 9.998e-13  (product#14)
PASS half-noise-erases                worst_slack= 1.000e-12  (pmf#0)
PASS noiseless-best-case              worst_slack= 9.999e-13  (pmf#2)
PASS noise-never-helps-prediction     worst_slack= 1.000e-12  (pmf#6 alpha=0.11)
PASS lower-bound-valid                worst_slack= 1.000e-10  (pmf#0 alpha=0.5)
PASS upper-bound-valid                worst_slack= 1.000e-10  (pmf#0 alpha=0.5)
PASS mgl-bound-valid                  worst_slack= 9.996e-11  (pmf#10 alpha=0.0)
PASS scalar-lemma-sandwich            worst_slack= 1.082e-08  (mix#59 alpha=0.3)
PASS equality-exactly-when-extreme    worst_slack= 1.000e-10  (extreme product)
PASS sandwich-orderings               worst_slack= 9.999e-13  (mgl alpha=0.11 x=0.000)
PASS upper-curve-shape                worst_slack= 3.849e-08  (concave alpha=0.3)
PASS memoryless-noise-reduction       worst_slack= 9.996e-13  (pmf#1 alpha=0.11)
PASS two-sided-closed-form            worst_slack= 1.000e-10  (gap=3 q=0.2)
PASS dyadic-order-strength            worst_slack= 1.722e-02  (n=4 q=0.05 vs identity)
PASS series-bound-below-simulation    worst_slack= 2.425e-03  (alpha=0.25 q=0.45)
PASS crossing-separates-regimes       worst_slack= 5.842e-04  (q/qc=2.12)
PASS ceiling-chain-monotone           worst_slack= 1.000e-12  (m=1)
PASS window-entropy-monotone          worst_slack= 1.000e-12  (alpha=0.25 q=0.3 n=16)
PASS belief-stays-in-support          worst_slack= 1.000e-14  (odd q=0.05)
PASS quartic-matches-slope-scan       worst_slack= 0.000e+00  (alpha=0.05 q=0.05)
PASS belief-bound-below-simulation    worst_slack= 1.003e-03  (alpha=0.25 q=0.45)
28/28 checks passed
"""

    # `validate all --budget 5 --seed 2`: the instance floors and another stream
    GOLDEN_ALL_SMALL = """\
PASS inverse-identity                 worst_slack= 9.991e-11  (u=0.8300)
PASS convolve-between-max-and-half    worst_slack= 8.538e-03  (a=0.4071 b=0.0460)
PASS taylor-matches-entropy           worst_slack= 9.998e-13  (p=0.3)
PASS convolved-entropy-concave        worst_slack= 1.443e-06  (alpha=0.3 x=0.4988)
PASS mmse-floor-any-order             worst_slack= 1.575e-04  (pmf#12 (2, 1))
PASS mmse-entropy-cap-any-order       worst_slack= 1.689e-02  (pmf#12 (1, 2))
PASS worst-case-dominates             worst_slack= 9.998e-13  (pmf#8 (1, 4, 2, 3))
PASS product-order-invariant          worst_slack= 9.998e-13  (product#8)
PASS half-noise-erases                worst_slack= 1.000e-12  (pmf#0)
PASS noiseless-best-case              worst_slack= 9.998e-13  (pmf#8)
PASS noise-never-helps-prediction     worst_slack= 1.000e-12  (pmf#0 alpha=0.11)
PASS lower-bound-valid                worst_slack= 1.000e-10  (pmf#0 alpha=0.5)
PASS upper-bound-valid                worst_slack= 1.000e-10  (pmf#0 alpha=0.5)
PASS mgl-bound-valid                  worst_slack= 9.998e-11  (pmf#1 alpha=0.0)
PASS scalar-lemma-sandwich            worst_slack= 2.184e-06  (mix#9 alpha=0.3)
PASS equality-exactly-when-extreme    worst_slack= 1.000e-10  (extreme product)
PASS sandwich-orderings               worst_slack= 9.999e-13  (mgl alpha=0.11 x=0.000)
PASS upper-curve-shape                worst_slack= 3.849e-08  (concave alpha=0.3)
PASS memoryless-noise-reduction       worst_slack= 9.991e-13  (pmf#5 alpha=0.3)
PASS two-sided-closed-form            worst_slack= 1.000e-10  (gap=3 q=0.2)
PASS dyadic-order-strength            worst_slack= 1.722e-02  (n=4 q=0.05 vs identity)
PASS series-bound-below-simulation    worst_slack= 2.430e-03  (alpha=0.25 q=0.45)
PASS crossing-separates-regimes       worst_slack= 5.842e-04  (q/qc=2.12)
PASS ceiling-chain-monotone           worst_slack= 1.000e-12  (m=1)
PASS window-entropy-monotone          worst_slack= 1.000e-12  (alpha=0.25 q=0.3 n=16)
PASS belief-stays-in-support          worst_slack= 1.000e-14  (odd q=0.05)
PASS quartic-matches-slope-scan       worst_slack= 0.000e+00  (alpha=0.05 q=0.05)
PASS belief-bound-below-simulation    worst_slack= 1.008e-03  (alpha=0.25 q=0.45)
28/28 checks passed
"""

    @pytest.mark.parametrize("seed, budget, golden", [
        ("0", "500", GOLDEN_ALL), ("2", "5", GOLDEN_ALL_SMALL)],
        ids=["seed0-budget500", "seed2-budget5"])
    def test_all_suites_golden_stdout(self, capsys, seed, budget, golden):
        code, out, _ = run_cli(capsys, "validate", "all", "--budget", budget, "--seed", seed)
        assert code == 0
        assert out == golden

    def test_each_suite_is_its_slice_of_all(self):
        everything = validate.run_suite("all", seed=1, budget=5)
        at = 0
        for name in validate.SUITES:
            alone = validate.run_suite(name, seed=1, budget=5)
            assert alone == everything[at:at + len(alone)]
            at += len(alone)
        assert at == len(everything) == 28
        with pytest.raises(ValueError, match="nosuch"):
            validate.run_suite("nosuch")

    def test_dist_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "dist", "--seed", "3", "--budget", "40")
        assert code == 0
        assert out.strip().splitlines()[-1].endswith("checks passed")

    def test_bounds_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "bounds", "--seed", "2", "--budget", "40")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])

    def test_hmm_suite_passes(self, capsys):
        # tiny budget keeps the Monte Carlo checks cheap; seed is fixed so
        # the suite is deterministic
        code, out, _ = run_cli(capsys, "validate", "hmm", "--seed", "2", "--budget", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1] == "9/9 checks passed"
        # count checks reach slack 0 and must not print it as -0.000e+00
        assert "worst_slack=-0.000e+00" not in out

    def test_nonpositive_budget_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "validate", "scalar", "--budget", "0")
        assert code == 2
        assert "budget" in err

    def test_budget_past_cap_exits_2(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the cap must be checked before any work")

        monkeypatch.setattr(cli.validate_mod, "run_suite", refuse)
        code, _, err = run_cli(capsys, "validate", "scalar", "--budget", "10001")
        assert code == 2
        assert "budget" in err

    def test_hmm_suite_simulates_each_grid_point_once(self, monkeypatch):
        calls = []
        real = hmm.entropy_rate_mc_many

        def counted(params_seq, samples, burnin, seeds):
            calls.append([(p.alpha, p.q, seed) for p, seed in zip(params_seq, seeds)])
            return real(params_seq, samples, burnin, seeds)

        monkeypatch.setattr(hmm, "entropy_rate_mc_many", counted)
        validate.run_suite("hmm", seed=2, budget=5)
        assert len(calls) == 1
        assert sorted(calls[0]) == sorted((a, q, (2, int(a * 1000), int(q * 1000)))
                                          for a, q in HMM_GRID)

    def test_belief_check_names_a_grid_point(self):
        belief = validate.run_suite("hmm", seed=2, budget=5)[-1]
        assert belief.name == "belief-bound-below-simulation"
        assert belief.detail in {f"alpha={a} q={q}" for a, q in HMM_GRID}

    def test_hmm_suite_streams_the_belief_path(self, monkeypatch):
        # the 1M-step belief-stays-in-support path is scanned chunk by chunk;
        # the simulations, which stream on their own, are stubbed out
        monkeypatch.setattr(hmm, "entropy_rate_mc_many",
                            lambda params_seq, *a: [hmm.McEstimate(1.0, 0.0)] * len(params_seq))
        tracemalloc.start()
        try:
            results = validate.run_suite("hmm", seed=0, budget=500)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(r.passed for r in results)
        assert peak < 16 * 2**20

    def test_hmm_suite_peak_memory(self):
        # with its real simulations; numpy.random, which loads lazily on first
        # use (about 0.7 MiB), is loaded before tracing starts
        np.random.default_rng(0)
        tracemalloc.start()
        try:
            results = validate.run_suite("hmm", seed=0, budget=500)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(r.passed for r in results)
        assert peak <= 2.5 * 2**20

    def test_unknown_suite_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["validate", "nosuch"])
        assert excinfo.value.code == 2
        capsys.readouterr()


class TestPmfMmse:
    def test_reports_orders_and_bounds(self, capsys, tmp_path):
        path = tmp_path / "chain.pmf"
        write_pmf(markov_joint_pmf(3, 0.2), str(path))
        code, out, _ = run_cli(capsys, "pmf-mmse", str(path), "--alpha", "0.11")
        assert code == 0
        got = dict(line.split(" = ") for line in out.strip().splitlines())
        assert got["n"] == "3"
        assert float(got["worst_case_mmse"]) == pytest.approx(0.5852470588235295, abs=1e-10)
        assert got["worst_case_order"] == "1,3,2"
        assert got["greedy_order"] == "1,3,2"
        lower = float(got["lower_bound_per_symbol"])
        exact = float(got["exact_output_entropy_per_symbol"])
        upper = float(got["upper_bound_per_symbol"])
        assert lower <= exact <= upper
        # both fields are rounded to 12 significant digits before printing
        assert math.isclose(float(got["entropy"]),
                            3.0 * float(got["entropy_per_symbol"]), rel_tol=1e-11)

    # The whole stdout at n = 8, byte for byte. A chain's bits tie
    # mathematically, so its greedy order is set by the 1e-12 tie rule.
    GOLDEN = {
        "random": (random_pmf(8, seed=8), (
            "n = 8\n"
            "entropy = 7.72546734649\n"
            "entropy_per_symbol = 0.965683418311\n"
            "worst_case_mmse = 1.91271884505\n"
            "worst_case_order = 7,6,1,5,8,3,4,2\n"
            "greedy_order = 3,7,6,2,5,8,1,4\n"
            "greedy_mmse = 1.9120842895\n"
            "alpha = 0.11\n"
            "lower_bound_per_symbol = 0.978176043628\n"
            "exact_output_entropy_per_symbol = 0.994546776484\n"
            "upper_bound_per_symbol = 0.994566292491\n")),
        "markov": (markov_joint_pmf(8, 0.3), (
            "n = 8\n"
            "entropy = 7.16903629461\n"
            "entropy_per_symbol = 0.896129536827\n"
            "worst_case_mmse = 1.734901364\n"
            "worst_case_order = 1,8,4,2,3,6,5,7\n"
            "greedy_order = 1,8,4,6,2,3,5,7\n"
            "greedy_mmse = 1.734901364\n"
            "alpha = 0.11\n"
            "lower_bound_per_symbol = 0.933714201313\n"
            "exact_output_entropy_per_symbol = 0.961329811176\n"
            "upper_bound_per_symbol = 0.961413671367\n")),
    }

    @pytest.mark.parametrize("kind", sorted(GOLDEN))
    def test_golden_stdout_at_n8(self, capsys, tmp_path, kind):
        pmf, want = self.GOLDEN[kind]
        path = tmp_path / f"{kind}.pmf"
        write_pmf(pmf, str(path))
        code, out, err = run_cli(capsys, "pmf-mmse", str(path), "--alpha", "0.11")
        assert (code, err) == (0, "")
        assert out == want

    @pytest.mark.parametrize("alpha", ["0", "0.11"])
    def test_point_mass_prints_zero_entropy(self, capsys, tmp_path, alpha):
        path = tmp_path / "point.pmf"
        write_pmf(dist.ExplicitPmf([0.0, 0.0, 1.0, 0.0]), str(path))
        code, out, err = run_cli(capsys, "pmf-mmse", str(path), "--alpha", alpha)
        assert (code, err) == (0, "")
        got = dict(line.split(" = ") for line in out.strip().splitlines())
        assert (got["entropy"], got["entropy_per_symbol"]) == ("0", "0")
        if alpha == "0":
            assert got["exact_output_entropy_per_symbol"] == "0"

    def test_missing_file_exits_3(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "pmf-mmse", str(tmp_path / "absent.pmf"))
        assert code == 3
        assert "file error" in err

    def test_malformed_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.pmf"
        path.write_text("2\n0.5\nnot-a-number\n")
        code, _, err = run_cli(capsys, "pmf-mmse", str(path))
        assert code == 2

    def test_non_ascii_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "binary.pmf"
        path.write_bytes(b"1\n0.5\n0.5\xff\n")
        code, out, err = run_cli(capsys, "pmf-mmse", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("domain error:")

    def test_oversized_file_exits_2_in_bounded_memory(self, capsys, tmp_path):
        path = tmp_path / "huge.pmf"
        path.write_text("2\n" + "0.25\n" * 800_000)  # 4 MB, twice the read limit
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "pmf-mmse", str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert "longer than" in err
        assert peak < 16 * 2**20

    def test_above_search_cap_prints_nothing(self, capsys, tmp_path):
        path = tmp_path / "nine.pmf"
        write_pmf(random_pmf(9, 1), str(path))
        code, out, err = run_cli(capsys, "pmf-mmse", str(path))
        assert (code, out) == (2, "")
        assert "cap 8" in err

    @pytest.mark.parametrize("alpha", ["0.7", "nan", "-0.1"])
    def test_bad_alpha_prints_nothing(self, capsys, tmp_path, alpha):
        path = tmp_path / "chain.pmf"
        write_pmf(markov_joint_pmf(3, 0.2), str(path))
        code, out, err = run_cli(capsys, "pmf-mmse", str(path), "--alpha", alpha)
        assert (code, out) == (2, "")
        assert "alpha must lie in [0.0, 0.5]" in err


class TestParserReuse:
    """main() parses every call with one parser per process."""

    @staticmethod
    def _pmf_file(tmp_path):
        path = tmp_path / "chain.pmf"
        write_pmf(markov_joint_pmf(6, 0.3), str(path))
        return ["pmf-mmse", str(path), "--alpha", "0.11"]

    def test_build_parser_returns_one_object(self):
        assert cli.build_parser() is cli.build_parser()

    def test_main_builds_no_parser_after_the_first(self, capsys, monkeypatch):
        argv = ["bound", "mgl", "--alpha", "0.11", "--entropy", "0.5"]
        first = run_cli(capsys, *argv)

        def refuse(*args, **kwargs):
            raise AssertionError("main() built a second parser")

        monkeypatch.setattr(cli.argparse, "ArgumentParser", refuse)
        assert run_cli(capsys, *argv) == first

    def test_a_command_builds_only_its_own_parser(self, tmp_path):
        # a fresh process, because the parser caches live as long as it does
        script = """
import argparse, sys
from bscbounds import cli
built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
assert cli.main(["bound", "mgl", "--alpha", "0.11", "--entropy", "0.5"]) == 0
assert cli.main(sys.argv[1:]) == 0
print(built, cli.build_parser.cache_info().currsize)
"""
        src = str(Path(bscbounds.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script, *self._pmf_file(tmp_path)],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == \
            "['bscbounds bound', 'bscbounds pmf-mmse'] 0"

    def test_same_argv_twice_prints_the_same(self, capsys, tmp_path):
        for argv in (self._pmf_file(tmp_path),
                     ["bound", "theorem6", "--alpha", "0.11", "--q", "0.1",
                      "--variant", "printed"],
                     ["bound", "cover-thomas", "--alpha", "0.11", "--q", "0.1", "--n", "3"]):
            first = run_cli(capsys, *argv)
            assert first[0] == 0 and first[1]
            assert run_cli(capsys, *argv) == first

    @pytest.mark.parametrize("failing", [
        ["pmf-mmse", "x.pmf", "--bogus"],
        ["bound", "theorem6", "--alpha", "0.11", "--q", "0.1", "--variant", "nosuch"],
        ["bound", "nosuch"],
        ["figure", "fig3", "--points"],
    ], ids=["unknown-flag", "bad-choice", "bad-kind", "missing-value"])
    def test_a_parse_error_leaves_later_calls_alone(self, capsys, tmp_path, failing):
        calls = (self._pmf_file(tmp_path),
                 ["bound", "theorem6", "--alpha", "0.11", "--q", "0.1"],
                 ["bound", "cover-thomas", "--alpha", "0.11", "--q", "0.1"])
        before = [run_cli(capsys, *argv) for argv in calls]
        with pytest.raises(SystemExit) as excinfo:
            cli.main(failing)
        assert excinfo.value.code == 2
        capsys.readouterr()
        assert [run_cli(capsys, *argv) for argv in calls] == before

    @pytest.mark.parametrize("failing", [
        ["bound", "theorem6", "--alpha", "0.7", "--q", "0.1", "--variant", "printed"],
        ["bound", "cover-thomas", "--alpha", "0.11", "--q", "0.1", "--n", "0"],
        ["bound", "theorem5", "--alpha", "0.11"],
    ], ids=["alpha-out-of-range", "zero-order", "missing-flag"])
    def test_a_domain_error_leaves_later_calls_alone(self, capsys, tmp_path, failing):
        calls = (self._pmf_file(tmp_path),
                 ["bound", "theorem6", "--alpha", "0.11", "--q", "0.1"],
                 ["bound", "cover-thomas", "--alpha", "0.11", "--q", "0.1"])
        before = [run_cli(capsys, *argv) for argv in calls]
        code, out, err = run_cli(capsys, *failing)
        assert (code, out) == (2, "") and err.startswith("domain error:")
        assert [run_cli(capsys, *argv) for argv in calls] == before


def _parse_exit(capsys, parse, argv):
    with pytest.raises(SystemExit) as excinfo:
        parse(argv)
    out, err = capsys.readouterr()
    return excinfo.value.code, out, err


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["nosuch"],
    ["bound", "--help"], ["bound"], ["bound", "nosuch"],
    ["bound", "mgl", "--alpha", "x"], ["bound", "mgl", "--alpha"],
    ["bound", "mgl", "--alpha", "0.11", "--entropy", "0.5", "--bogus"],
    ["figure", "--help"], ["figure"], ["figure", "nosuch"],
    ["figure", "fig3", "--alpha", "x"], ["figure", "fig3", "--out"],
    ["figure", "fig3", "extra"],
    ["validate", "--help"], ["validate"], ["validate", "nosuch"],
    ["validate", "all", "--budget", "x"], ["validate", "all", "--seed"],
    ["validate", "all", "extra"],
    ["pmf-mmse", "--help"], ["pmf-mmse"],
    ["pmf-mmse", "x.pmf", "--alpha", "x"], ["pmf-mmse", "x.pmf", "--alpha"],
    ["pmf-mmse", "x.pmf", "--bogus"],
], ids=lambda argv: "_".join(argv) or "no-args")
def test_parse_exits_as_the_full_parser_does(capsys, argv):
    # main() parses with the running command's own parser; the full tree
    # decided every one of these outputs before that
    assert _parse_exit(capsys, cli.main, argv) == \
        _parse_exit(capsys, cli.build_parser().parse_args, argv)


class TestModuleEntry:
    @staticmethod
    def _run_module(module):
        # the child imports the package under test, not an installed copy
        src = str(Path(bscbounds.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        return subprocess.run(
            [sys.executable, "-m", module, "bound", "mgl",
             "--alpha", "0.11", "--entropy", "0.5"],
            capture_output=True, text=True, env=env,
        )

    def test_python_dash_m_invocation(self):
        proc = self._run_module("bscbounds.cli")
        assert proc.returncode == 0
        assert proc.stdout.startswith("mgl(alpha=0.11, entropy=0.5) = ")

    def test_package_runs_as_a_module(self):
        package, cli_module = self._run_module("bscbounds"), self._run_module("bscbounds.cli")
        assert package.returncode == cli_module.returncode == 0
        assert (package.stdout, package.stderr) == (cli_module.stdout, cli_module.stderr)


class TestOutputFiles:
    """write_pmf and `figure --out` overwrite in place: never O_TRUNC (on ext4 a
    truncating rewrite waits for the last write's flush), never a rename."""

    def test_shorter_figure_rewrite_leaves_no_stale_tail(self, capsys, tmp_path):
        out, fresh = tmp_path / "same.csv", tmp_path / "fresh.csv"
        run_cli(capsys, "figure", "fig2a", "--points", "201", "--out", str(out))
        code, msg, _ = run_cli(capsys, "figure", "fig2a", "--points", "3", "--out", str(out))
        assert (code, msg) == (0, f"wrote {out}: 3 rows\n")
        run_cli(capsys, "figure", "fig2a", "--points", "3", "--out", str(fresh))
        assert out.read_bytes() == fresh.read_bytes()

    def test_figure_to_dev_null(self, capsys):
        # /dev/null is written but not truncated: ftruncate on it fails
        code, msg, err = run_cli(capsys, "figure", "fig2a", "--points", "3",
                                 "--out", os.devnull)
        assert (code, msg, err) == (0, f"wrote {os.devnull}: 3 rows\n", "")

    def test_write_pmf_writes_through_a_symlink(self, tmp_path):
        target, link = tmp_path / "target.pmf", tmp_path / "link.pmf"
        target.write_text("stale " * 200, encoding="ascii")
        link.symlink_to(target.name)
        pmf = random_pmf(3, seed=2)
        write_pmf(pmf, link)
        assert link.is_symlink() and os.readlink(link) == target.name
        write_pmf(pmf, tmp_path / "fresh.pmf")
        assert target.read_bytes() == (tmp_path / "fresh.pmf").read_bytes()

    def test_no_writer_opens_with_o_trunc(self, capsys, tmp_path, monkeypatch):
        flags = []
        real_open = dist.os.open

        def recording_open(path, flag, *args, **kwargs):
            flags.append(flag)
            return real_open(path, flag, *args, **kwargs)

        monkeypatch.setattr(dist.os, "open", recording_open)
        for _ in range(2):  # a fresh file, then a rewrite
            write_pmf(random_pmf(3, seed=1), tmp_path / "law.pmf")
            code, _, _ = run_cli(capsys, "figure", "fig2a", "--points", "3",
                                 "--out", str(tmp_path / "f.csv"))
            assert code == 0
        assert len(flags) == 4
        assert not any(flag & os.O_TRUNC for flag in flags)

    def test_rewrites_keep_the_inode(self, capsys, tmp_path):
        # rules out a writer that renames a temporary file over the old one
        pmf_path, csv_path = tmp_path / "law.pmf", tmp_path / "f.csv"
        write_pmf(random_pmf(4, seed=1), pmf_path)
        run_cli(capsys, "figure", "fig2a", "--points", "9", "--out", str(csv_path))
        inodes = pmf_path.stat().st_ino, csv_path.stat().st_ino
        write_pmf(random_pmf(3, seed=2), pmf_path)
        run_cli(capsys, "figure", "fig2a", "--points", "3", "--out", str(csv_path))
        assert (pmf_path.stat().st_ino, csv_path.stat().st_ino) == inodes
