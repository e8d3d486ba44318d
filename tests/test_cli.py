import ast
import itertools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trackassoc.cli import (EXPERIMENTS, MAX_STEPS, ConfigError, _experiment_rows, default_spec,
                            main, parse_config, run, write_csv, write_svg)
from trackassoc.geometry import ScanConfig
from trackassoc.single_fa import exact_probability

from numeric_helpers import spy_draws

GOLDEN = Path(__file__).parent / "golden"


def read_csv(path):
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


class TestParseConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("")
        spec = parse_config(cfg)
        assert spec.experiment == "sweep-lambda"
        assert spec.n_scans == 40
        assert spec.lambda_min == 1.0 and spec.lambda_max == 4.0
        assert spec.n_steps == 10
        assert spec.trials == 100_000
        assert spec.seed == 42
        assert spec.scan == 0
        assert spec.methods == ("exact", "closed-form", "mc")

    def test_small_n_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n_scans=3\n")
        with pytest.raises(ConfigError):
            parse_config(cfg)

    def test_dtmc_spec(self, tmp_path):
        cfg = tmp_path / "dtmc.cfg"
        cfg.write_text("experiment=dtmc\np_fa=0.1\n")
        spec = parse_config(cfg)
        assert spec.experiment == "dtmc"
        assert spec.p_fa_min == spec.p_fa_max == 0.1

    def test_unknown_key_reports_line(self, tmp_path):
        cfg = tmp_path / "unk.cfg"
        cfg.write_text("n_scans=10\nbogus=1\n")
        with pytest.raises(ConfigError, match=":2:"):
            parse_config(cfg)

    def test_epoch_spacing_is_an_unknown_key(self, tmp_path, capsys):
        # the geometry has unit epoch spacing: no spacing changes a number
        cfg = tmp_path / "dt.cfg"
        cfg.write_text("dt=1\n")
        with pytest.raises(ConfigError, match="unknown key 'dt'"):
            parse_config(cfg)
        assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "config error:" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_comments_and_blank_lines(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# header\n\nn_scans = 12   # trailing\n")
        assert parse_config(cfg).n_scans == 12

    def test_bad_value_reports_line(self, tmp_path):
        cfg = tmp_path / "v.cfg"
        cfg.write_text("trials=abc\n")
        with pytest.raises(ConfigError, match=":1:"):
            parse_config(cfg)

    def test_methods_filtering(self, tmp_path):
        cfg = tmp_path / "m.cfg"
        cfg.write_text("methods=mc,exact\n")
        assert parse_config(cfg).methods == ("exact", "mc")

    def test_unknown_method(self, tmp_path):
        cfg = tmp_path / "m.cfg"
        cfg.write_text("methods=psychic\n")
        with pytest.raises(ConfigError):
            parse_config(cfg)

    @pytest.mark.parametrize("text", ["experiment=dtmc\nmethods=exact,mc\np_fa=0.1\n",
                                      "experiment=random-lambda\nmethods=exact\n",
                                      "experiment=sweep-lambda\nmethods=chi2\n"],
                             ids=["dtmc", "random-lambda", "sweep-lambda"])
    def test_method_the_experiment_does_not_compute(self, tmp_path, capsys, text):
        cfg = tmp_path / "m.cfg"
        cfg.write_text(text)
        with pytest.raises(ConfigError, match="does not compute"):
            parse_config(cfg)
        assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_jobs_other_than_one_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("jobs=2\n")
        with pytest.raises(ConfigError, match="jobs must be 1"):
            parse_config(cfg)
        assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "config error:" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_jobs_one_parses(self, tmp_path):
        # the benchmark's generated configs still set it
        cfg = tmp_path / "run.cfg"
        cfg.write_text("jobs=1\n")
        assert parse_config(cfg) == default_spec()

    @pytest.mark.parametrize("text", ["lambda_step=1e-9\n", "lambda_step=5e-324\n",
                                      "experiment=dtmc\np_fa_step=1e-12\n"],
                             ids=["lambda", "lambda-subnormal", "p_fa"])
    def test_grid_beyond_its_point_limit(self, tmp_path, capsys, text):
        # rejected from (hi - lo) / step, before a list of 10^10 points is built
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(text)
        assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "config error:" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("text", ["n_steps=1001\n", "n_steps=100000\n",
                                      "experiment=dtmc\nsteps=1000001\n",
                                      "experiment=dtmc\nsteps=1" + "0" * 400 + "\n"],
                             ids=["n_steps", "n_steps-huge", "steps", "steps-10^400"])
    def test_integer_beyond_its_cap(self, tmp_path, capsys, text):
        # n_steps=100000 once asked fit_gammas for an 80 GB array, and
        # steps=10**400 overflowed a float in the dtmc reach probability
        cfg = tmp_path / "cap.cfg"
        cfg.write_text(text)
        assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "config error:" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("text", ["n_steps=1000\n", "experiment=dtmc\nsteps=1000000\n"],
                             ids=["n_steps", "steps"])
    def test_integer_at_its_cap_runs(self, tmp_path, text):
        cfg = tmp_path / "cap.cfg"
        cfg.write_text(text + "lambda_min=2.0\nlambda_max=2.0\np_fa=0.1\ntrials=16\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(next(tmp_path.glob("*.csv")))
        assert len(rows) == 1 and all(math.isfinite(v) for v in rows[0])

    def test_one_point_grid_with_any_step(self, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("lambda_min=2.0\nlambda_max=2.0\nlambda_step=1e-300\n"
                       "p_fa=0.1\np_fa_step=1e-300\n")
        spec = parse_config(cfg)
        assert EXPERIMENTS["sweep-lambda"].grid(spec) == [2.0]
        assert EXPERIMENTS["dtmc"].grid(spec) == [0.1]

    @pytest.mark.parametrize("text", ["n_steps=0\n", "support_k=0\n",
                                      "experiment=random-lambda\nsigma0=-1\n", "seed=-1\n",
                                      "seed=18446744073709551616\n",
                                      "experiment=random-lambda\nsigma0=nan\n",
                                      "lambda_step=inf\n", "scan=41\n", "scan=-1\n"],
                             ids=["n_steps", "support_k", "sigma0", "seed-negative",
                                  "seed-2^64", "sigma0-nan", "lambda_step-inf",
                                  "scan-beyond-n", "scan-negative"])
    def test_value_the_library_rejects(self, tmp_path, capsys, text):
        # the library's own checks reject each of these (the first seven once
        # passed parsing and died in run with a traceback)
        cfg = tmp_path / "lib.cfg"
        cfg.write_text(text)
        with pytest.raises(ConfigError):
            parse_config(cfg)
        assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "config error:" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("text,message", [
        ("experiment=sweep-x\n", "unknown experiment"),
        ("n_scans=201\n", "n_scans must lie in [5, 200]"),
        ("n_min=4\n", "n grid must lie in [5, 200]"),
        ("experiment=sweep-n\nn_max=201\n", "n grid must lie in [5, 200]"),
        ("lambda_max=10.5\n", "lambda values must lie in [0, 10]"),
        ("lambda_fixed=-1\n", "lambda values must lie in [0, 10]"),
        ("lambda_min=3\nlambda_max=2\n", "bad lambda grid"),
        ("lambda_step=-0.1\n", "bad lambda grid"),
        ("n_step=0\n", "bad n grid step"),
        ("k=0\n", "k must satisfy"),
        ("k=40\n", "k must satisfy"),
        ("p_fa_max=1.0\n", "bad p_fa grid"),
        ("p_fa_min=0.2\np_fa_max=0.1\n", "bad p_fa grid"),
        ("p_fa_step=0\n", "bad p_fa grid"),
        ("sweep-lambda\n", "expected key=value"),
    ], ids=["experiment", "n_scans-beyond-200", "n_min-below-5", "n_max-beyond-200",
            "lambda-beyond-10", "lambda-negative", "lambda-grid-reversed",
            "lambda-step-negative", "n_step-zero", "k-zero", "k-at-n_scans", "p_fa-one",
            "p_fa-grid-reversed", "p_fa-step-zero", "line-without-equals"])
    def test_value_the_cli_rejects(self, tmp_path, capsys, text, message):
        # the CLI's own bounds, each checked before anything is computed
        cfg = tmp_path / "cli.cfg"
        cfg.write_text("trials=16\n" + text)
        assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "config error:" in err and message in err
        assert not list(tmp_path.glob("*.csv"))


class TestSweepLambda:
    def test_full_grid_against_oracle(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("experiment=sweep-lambda\nn_scans=40\ntrials=20000\n")
        spec = parse_config(cfg)
        assert run(spec, tmp_path) == 0
        header, rows = read_csv(tmp_path / "sweep-lambda.csv")
        assert header == ["lambda", "exact", "closed_form", "mc_p", "mc_stderr"]
        assert len(rows) == 31
        # Bonferroni-adjusted bound over the 31 z-scores (false-alarm ~0.3%)
        zmax = max(abs(r[3] - r[1]) / r[4] for r in rows if r[4] > 0)
        assert zmax <= 3.9

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trials=5000\nlambda_step=0.5\n")
        spec = parse_config(cfg)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(spec, out_a) == 0
        assert run(spec, out_b) == 0
        assert (out_a / "sweep-lambda.csv").read_bytes() == \
            (out_b / "sweep-lambda.csv").read_bytes()

    def test_grid_draws_its_noise_once(self, tmp_path, monkeypatch):
        # every lambda point reads the same stream, so the 31-point grid draws
        # the chunks of a one-point grid
        calls = spy_draws(monkeypatch)
        cfg = tmp_path / "run.cfg"
        chunks = []
        for grid in ("", "lambda_min=2.0\nlambda_max=2.0\n"):
            cfg.write_text("methods=mc\ntrials=20000\n" + grid)
            assert run(parse_config(cfg), tmp_path) == 0
            chunks.append(len(calls))
            calls.clear()
        _, rows = read_csv(tmp_path / "sweep-lambda.csv")
        assert len(rows) == 1
        assert chunks[0] == chunks[1] > 1


class TestGolden:
    def test_sweep_n_analytic_columns(self, tmp_path):
        cfg = tmp_path / "g.cfg"
        cfg.write_text("experiment=sweep-n\nmethods=exact,closed_form\n"
                       "n_min=10\nn_max=80\nn_step=10\nlambda_fixed=2.0\n")
        spec = parse_config(cfg)
        assert run(spec, tmp_path) == 0
        assert (tmp_path / "sweep-n.csv").read_bytes() == \
            (GOLDEN / "sweep-n.csv").read_bytes()

    def test_dtmc_columns(self, tmp_path):
        cfg = tmp_path / "g.cfg"
        cfg.write_text("experiment=dtmc\np_fa_min=0.05\np_fa_max=0.30\n"
                       "p_fa_step=0.05\nsteps=20\n")
        spec = parse_config(cfg)
        assert run(spec, tmp_path) == 0
        assert (tmp_path / "dtmc.csv").read_bytes() == (GOLDEN / "dtmc.csv").read_bytes()
        header, rows = read_csv(tmp_path / "dtmc.csv")
        i_spec, i_pow = header.index("reach_spectral"), header.index("reach_power")
        for r in rows:
            assert abs(r[i_spec] - r[i_pow]) <= 1e-10

    @pytest.mark.parametrize("golden,text", [
        ("sweep-lambda.csv", "experiment=sweep-lambda\nmethods=exact,closed-form,mc\n"),
        ("random-lambda.csv", "experiment=random-lambda\n"),
        ("multi-fa.csv", "experiment=multi-fa\nk=3\n"
                         "methods=exact,chi2,normal,exponential,mc\n"),
        # N = 20, 80, 140, 200: four stream widths in one pass of the seed's
        # words, with narrower trials cut at window edges (a wrong carry of a
        # cut trial moves the N = 20 count at lambda 1)
        ("sweep-n-mc.csv", "experiment=sweep-n\nmethods=exact,closed-form,mc\n"
                           "n_min=20\nn_max=200\nn_step=60\nlambda_fixed=1.0\n")],
        ids=["sweep-lambda", "random-lambda", "multi-fa", "sweep-n"])
    def test_monte_carlo_columns(self, tmp_path, golden, text):
        cfg = tmp_path / "g.cfg"
        cfg.write_text(text + "trials=2000\nlambda_step=0.5\n")
        spec = parse_config(cfg)
        assert run(spec, tmp_path) == 0
        assert (tmp_path / f"{spec.experiment}.csv").read_bytes() == \
            (GOLDEN / golden).read_bytes()

    @pytest.mark.parametrize("p_fa", ("1e-5", "1e-6", "1e-9"))
    def test_dtmc_small_p_fa(self, tmp_path, p_fa):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(f"experiment=dtmc\np_fa={p_fa}\n")
        assert run(parse_config(cfg), tmp_path) == 0
        header, rows = read_csv(tmp_path / "dtmc.csv")
        for r in rows:
            assert all(math.isfinite(v) for v in r)
            for name in ("reach_spectral", "reach_power", "pi4"):
                assert 0.0 <= r[header.index(name)] <= 1.0

    @pytest.mark.parametrize("text", ["p_fa_max=0.999999999\n", "p_fa=0.999999999999\n"])
    def test_dtmc_grid_stays_below_one(self, tmp_path, text):
        # rounding the grid to 10 decimals once took its last point to p_fa = 1
        from trackassoc.cli import _p_fa_grid

        cfg = tmp_path / "g.cfg"
        cfg.write_text("experiment=dtmc\n" + text)
        spec = parse_config(cfg)
        assert max(_p_fa_grid(spec)) == spec.p_fa_max < 1.0
        assert run(spec, tmp_path) == 0
        _, rows = read_csv(tmp_path / "dtmc.csv")
        # the x column prints each point, not 1 for a p_fa within 1e-10 of it
        assert [r[0] for r in rows] == _p_fa_grid(spec)


class TestOtherExperiments:
    def test_multi_fa_runs(self, tmp_path):
        cfg = tmp_path / "m.cfg"
        cfg.write_text("experiment=multi-fa\nk=2\ntrials=20000\n"
                       "lambda_min=1.5\nlambda_max=3.0\nlambda_step=0.5\n")
        spec = parse_config(cfg)
        assert run(spec, tmp_path) == 0
        header, rows = read_csv(tmp_path / "multi-fa.csv")
        assert header[:3] == ["lambda", "chi2", "normal"]
        for r in rows:
            assert abs(r[1] - r[3]) <= 0.1    # chi2 vs mc

    def test_multi_fa_exact_against_oracle(self, tmp_path):
        cfg = tmp_path / "m.cfg"
        cfg.write_text("experiment=multi-fa\nk=4\ntrials=20000\nmethods=mc,exact\n"
                       "lambda_min=1.0\nlambda_max=3.0\nlambda_step=1.0\n")
        assert run(parse_config(cfg), tmp_path) == 0
        header, rows = read_csv(tmp_path / "multi-fa.csv")
        assert header == ["lambda", "exact", "mc_p", "mc_stderr"]
        for _, exact, p_hat, stderr in rows:
            assert abs(exact - p_hat) <= 4 * stderr

    def test_multi_fa_moments_only_for_compound_laws(self, tmp_path, monkeypatch):
        import trackassoc.cli as cli_mod

        calls = []
        moment_params = cli_mod.multi_fa.moment_params
        monkeypatch.setattr(cli_mod.multi_fa, "moment_params",
                            lambda *a: calls.append(a) or moment_params(*a))
        cfg = tmp_path / "m.cfg"
        cfg.write_text("experiment=multi-fa\nk=3\ntrials=100\nmethods=exact,mc\n"
                       "lambda_min=1.0\nlambda_max=2.0\nlambda_step=1.0\n")
        assert run(parse_config(cfg), tmp_path) == 0
        assert calls == []
        cfg.write_text("experiment=multi-fa\nk=3\nmethods=exact,chi2\n"
                       "lambda_min=1.0\nlambda_max=2.0\nlambda_step=1.0\n")
        assert run(parse_config(cfg), tmp_path) == 0
        assert len(calls) == 2

    def test_random_lambda_huge_sigma0(self, tmp_path):
        # sigma0^2 once overflowed in the closed form
        cfg = tmp_path / "r.cfg"
        cfg.write_text("experiment=random-lambda\nsigma0=1e300\ntrials=16\n")
        assert run(parse_config(cfg), tmp_path) == 0
        _, rows = read_csv(tmp_path / "random-lambda.csv")
        for _, closed_form, p_hat, stderr in rows:
            assert 0.0 <= closed_form <= 1.0 and 0.0 <= p_hat <= 1.0
            assert math.isfinite(stderr)

    def test_random_lambda_runs(self, tmp_path):
        cfg = tmp_path / "r.cfg"
        cfg.write_text("experiment=random-lambda\nsigma0=1.0\ntrials=5000\n"
                       "lambda_min=1.5\nlambda_max=2.5\nlambda_step=0.5\n")
        spec = parse_config(cfg)
        assert run(spec, tmp_path) == 0
        header, _ = read_csv(tmp_path / "random-lambda.csv")
        assert header == ["lambda0", "closed_form", "mc_p", "mc_stderr"]

    def test_first_order_runs(self, tmp_path):
        cfg = tmp_path / "f.cfg"
        cfg.write_text("experiment=first-order\nn_min=10\nn_max=40\nn_step=10\n")
        spec = parse_config(cfg)
        assert run(spec, tmp_path) == 0
        header, rows = read_csv(tmp_path / "first-order.csv")
        assert header == ["n_scans", "exact", "first_order"]
        assert len(rows) == 4

    @pytest.mark.parametrize("experiment", ["sweep-n", "first-order"])
    def test_written_scan_stays_fixed_and_zero_tracks_the_last(self, tmp_path, experiment):
        # scan=40 written out equals the default n_scans; it once moved to scan N past N = 40
        cfg = tmp_path / "s.cfg"
        grid = f"experiment={experiment}\nmethods=exact\nn_min=20\nn_max=80\nn_step=20\n"
        cfg.write_text(grid + "scan=40\n")
        spec = parse_config(cfg)
        ns = EXPERIMENTS[experiment].grid(spec)
        assert [EXPERIMENTS[experiment].point(spec, n).scan for n in ns] == [20, 40, 40, 40]
        _, rows = _experiment_rows(spec)
        assert [row[1] for row in rows] == [
            exact_probability(min(40, n), ScanConfig(n_scans=n, lam=spec.lambda_fixed))
            for n in ns]
        cfg.write_text(grid + "scan=0\n")
        spec = parse_config(cfg)
        assert spec.scan == 0
        assert [EXPERIMENTS[experiment].point(spec, n).scan for n in ns] == ns

    @pytest.mark.parametrize("experiment", ["sweep-n", "first-order"])
    def test_a_scan_past_n_scans_runs_at_every_n_that_holds_it(self, tmp_path, experiment):
        # sweep-n never reads n_scans (40), so scan 50 is checked against each N of the grid
        cfg = tmp_path / "s.cfg"
        cfg.write_text(f"experiment={experiment}\nmethods=exact\nn_min=60\nn_max=80\nn_step=20\n"
                       "scan=50\n")
        _, rows = _experiment_rows(parse_config(cfg))
        assert rows == [(n, exact_probability(50, ScanConfig(n_scans=n, lam=2.0)))
                        for n in (60, 80)]

    @pytest.mark.parametrize("experiment,scan", [
        *((name, scan) for name in ("oracle-compare", "random-lambda") for scan in (41, -1)),
        ("sweep-n", -1), ("first-order", -1)])
    def test_a_scan_no_point_holds_is_a_config_error(self, tmp_path, capsys, experiment, scan):
        # sweep-lambda's cases are test_value_the_library_rejects's scan-beyond-n and scan-negative
        cfg = tmp_path / "s.cfg"
        cfg.write_text(f"experiment={experiment}\nscan={scan}\ntrials=16\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert f"config error: scan index {scan} outside 1.." in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("experiment", ["multi-fa", "dtmc"])
    @pytest.mark.parametrize("scan", [41, -1])
    def test_experiments_without_a_decoy_scan_ignore_it(self, tmp_path, experiment, scan):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(f"experiment={experiment}\nscan={scan}\n")
        assert parse_config(cfg).scan == scan

    def test_oracle_compare_runs(self, tmp_path):
        cfg = tmp_path / "o.cfg"
        cfg.write_text("experiment=oracle-compare\ntrials=5000\n"
                       "lambda_min=2.0\nlambda_max=3.0\nlambda_step=0.5\n")
        spec = parse_config(cfg)
        assert run(spec, tmp_path) == 0
        header, rows = read_csv(tmp_path / "oracle-compare.csv")
        assert header == ["lambda", "exact", "mc_p", "mc_stderr"]
        assert len(rows) == 3

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        from trackassoc import cli as cli_mod
        from trackassoc.quadrature import IntegrationError

        def boom(*args, **kwargs):
            raise IntegrationError("forced failure", 0.5, 1.0)

        monkeypatch.setattr(cli_mod.single_fa, "exact_probability", boom)
        cfg = tmp_path / "x.cfg"
        cfg.write_text("methods=exact\nlambda_step=1.0\n")
        spec = parse_config(cfg)
        assert run(spec, tmp_path) == 2
        assert (tmp_path / "sweep-lambda.csv").read_text().startswith("# ERROR:")
        assert "numerical failure" in capsys.readouterr().err


@st.composite
def one_point_keys(draw):
    """Config keys of a one-point grid that parse_config accepts (experiment and methods aside)."""
    n = draw(st.integers(5, 200))
    lam = draw(st.floats(0.0, 10.0))
    return {"n_scans": n, "n_min": n, "n_max": n,
            "lambda_min": lam, "lambda_max": lam, "lambda_fixed": lam,
            "p_fa": draw(st.floats(0.0, 1.0, exclude_max=True)),
            "k": draw(st.integers(1, n - 1)), "scan": draw(st.integers(0, n)),
            "sigma0": draw(st.floats(0.0, 10.0)), "n_steps": draw(st.integers(1, 30)),
            "support_k": draw(st.floats(0.5, 6.0)), "steps": draw(st.integers(0, MAX_STEPS)),
            "trials": draw(st.integers(1, 64)), "seed": draw(st.integers(0, 2**64 - 1))}


class TestEveryAcceptedConfig:
    # reach_expansion is the tabulated diagnostic and expected_visits a step count
    NOT_PROBABILITIES = {"reach_expansion", "expected_visits"}

    @pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
    @settings(max_examples=40, deadline=None, database=None)
    # first-order and random-lambda once went below 0 here, and p_fa rounded up to 1
    @example(keys={"n_scans": 5, "n_min": 5, "n_max": 5, "lambda_min": 0.0, "lambda_max": 0.0,
                   "lambda_fixed": 0.0, "p_fa": 0.999999999999, "k": 1, "scan": 0,
                   "sigma0": 0.0, "n_steps": 1, "support_k": 3.0, "steps": 20, "trials": 16,
                   "seed": 0})
    # the dtmc reach_power once read 1.0000000000000002 here, which the CSV prints as 1
    @example(keys={"n_scans": 5, "n_min": 5, "n_max": 5, "lambda_min": 1.0, "lambda_max": 1.0,
                   "lambda_fixed": 1.0, "p_fa": 0.843, "k": 1, "scan": 0, "sigma0": 0.0,
                   "n_steps": 1, "support_k": 3.0, "steps": 50, "trials": 16, "seed": 0})
    @given(keys=one_point_keys())
    def test_probabilities_finite_and_in_unit_interval(self, experiment, keys):
        keys = {**keys, "experiment": experiment,
                "methods": ",".join(EXPERIMENTS[experiment].methods)}
        with tempfile.TemporaryDirectory() as out:
            cfg = Path(out) / "p.cfg"
            cfg.write_text("".join(f"{key}={value}\n" for key, value in keys.items()))
            spec = parse_config(cfg)
            assert run(spec, out) == 0
            csv = read_csv(Path(out) / f"{experiment}.csv")
        # the CSV's 10 digits round a value just past 1 down to 1, so check the table too
        for header, rows in (csv, _experiment_rows(spec)):
            assert len(rows) == 1
            for name, value in zip(header[1:], rows[0][1:]):
                if name not in self.NOT_PROBABILITIES:
                    assert math.isfinite(value) and 0.0 <= value <= 1.0, (name, value)


def _method_subsets():
    for name, experiment in sorted(EXPERIMENTS.items()):
        for size in range(1, len(experiment.methods) + 1):
            for subset in itertools.combinations(experiment.methods, size):
                yield pytest.param(name, subset, id=f"{name}:{','.join(subset)}")


@pytest.mark.parametrize("experiment,methods", _method_subsets())
def test_header_lists_columns_in_method_order(tmp_path, experiment, methods):
    # methods are asked for in reverse; the CSV follows Experiment.methods
    cfg = tmp_path / "h.cfg"
    cfg.write_text(f"experiment={experiment}\nmethods={','.join(reversed(methods))}\n"
                   "n_min=10\nn_max=10\nlambda_min=2.0\nlambda_max=2.0\ntrials=16\n")
    assert run(parse_config(cfg), tmp_path) == 0
    header, rows = read_csv(tmp_path / f"{experiment}.csv")
    columns = [c for m in methods for c in (("mc_p", "mc_stderr") if m == "mc"
                                            else (m.replace("-", "_"),))]
    assert header == [EXPERIMENTS[experiment].x_header] + columns
    assert len(rows) == 1 and len(rows[0]) == len(header)


class TestMainEntry:
    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n_scans=3\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.cfg")]) == 1

    def test_defaults_with_overrides(self, tmp_path):
        rc = main(["--out", str(tmp_path), "--trials", "2000", "--seed", "7",
                   "--experiment", "dtmc"])
        assert rc == 0
        assert (tmp_path / "dtmc.csv").exists()

    def test_plot_writes_svg(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("experiment=dtmc\np_fa_min=0.05\np_fa_max=0.2\np_fa_step=0.05\n")
        rc = main(["--config", str(cfg), "--out", str(tmp_path), "--plot"])
        assert rc == 0
        svg = (tmp_path / "dtmc.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg


class TestWriters:
    def test_csv_format_stable(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["x", "y"], [[1.0, 1.0 / 3.0], [2.0, math.pi],
                                     [0.999999999999, 0.999999999999]])
        assert path.read_text() == "x,y\n1,0.3333333333\n2,3.141592654\n0.999999999999,1\n"

    def test_svg_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError):
            write_svg(tmp_path / "e.svg", ["x", "y"], [])

    def test_default_spec_valid(self):
        spec = default_spec()
        assert spec.experiment == "sweep-lambda"
        assert spec.methods == ("exact", "closed-form", "mc")
        # grid helper hits both endpoints
        rows = int(round((spec.lambda_max - spec.lambda_min) / spec.lambda_step)) + 1
        assert rows == 31


class TestReadme:
    def test_config_table_lists_every_key_with_its_default(self):
        # the README's key table must follow ExperimentSpec, so no deleted key keeps a row
        from dataclasses import fields

        from trackassoc.cli import _KEYS, ExperimentSpec

        text = (Path(__file__).parent.parent / "README.md").read_text()
        table = text.split("| key | type | default | meaning |\n| --- | --- | --- | --- |\n")[1]
        rows = [[cell.strip(" `") for cell in line.strip("|").split("|")]
                for line in table.split("\n\n")[0].splitlines()]
        types = {"int": "int", "float": "float", "str": "str", "tuple": "comma list"}
        documented = [(key, kind, () if default == "empty" else _KEYS[key](default))
                      for key, kind, default, _ in rows]
        assert documented == [(f.name, types[f.type], f.default) for f in fields(ExperimentSpec)]


class TestModuleBoundary:
    PRODUCTION = ("geometry", "single_fa", "multi_fa", "dtmc", "mc_oracle", "quadrature")

    @pytest.mark.parametrize("module", PRODUCTION)
    def test_does_not_import_tabulated(self, module):
        # only the CLI may read the tabulated forms (for the reach_expansion column)
        path = Path(__file__).parent.parent / "src" / "trackassoc" / f"{module}.py"
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
                assert not [n for n in names if n.split(".")[-1] == "tabulated"], names
