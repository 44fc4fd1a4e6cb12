import json

import numpy as np
import pytest

from polyaig.chain import PosteriorSamples
from polyaig.cli import COMMANDS, _pooled_samples, _resolve, build_parser, main
from polyaig.io import parse_reals_csv, read_samples_csv
from polyaig.rng import _OMEGA_SPLIT

FIXTURE = "data/opioid_deaths.csv"


def run_cli(*argv):
    return main(list(argv))


class TestValidate:
    def test_default_checks_pass(self, capsys):
        assert run_cli("validate", "--draws", "4000", "--seed", "3") == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_report_is_deterministic(self, capsys):
        run_cli("validate", "--draws", "2000", "--seed", "5")
        first = capsys.readouterr().out
        run_cli("validate", "--draws", "2000", "--seed", "5")
        second = capsys.readouterr().out
        assert first == second

    def test_gig_rows_cover_both_sides_of_the_split(self, capsys):
        assert run_cli("validate", "--draws", "4000", "--seed", "3") == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()
                if line.startswith("gig-mean")]
        omegas = [float(r[2].split("=")[1]) * float(r[3].split("=")[1])
                  for r in rows]
        assert min(omegas) <= _OMEGA_SPLIT < max(omegas)
        assert all(r[-1] == "PASS" for r in rows)

    def test_crude_truncation_fails(self, capsys):
        code = run_cli("validate", "--draws", "4000", "--seed", "3",
                       "--trunc", "1")
        assert code == 1
        assert "FAIL" in capsys.readouterr().out


class TestPigSample:
    def test_writes_parseable_positive_values(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("pig-sample", "--n", "500", "--c", "1.5",
                       "--trunc", "100", "--seed", "2", "--out", str(out)) == 0
        vals = parse_reals_csv(out / "pig_samples.csv")
        assert vals.size == 500
        assert np.all(vals > 0)

    def test_shifted_rule(self, tmp_path, capsys):
        # --shift alone picks the ladder; --rule is an unknown flag
        out = tmp_path / "o"
        assert run_cli("pig-sample", "--n", "50", "--shift", "2.0",
                       "--trunc", "64", "--seed", "2", "--out", str(out)) == 0
        assert run_cli("pig-sample", "--n", "50", "--rule", "shifted",
                       "--shift", "2.0", "--out", str(tmp_path / "r")) == 2
        assert "unrecognized arguments: --rule shifted" in capsys.readouterr().err

    def _draws(self, out, *extra):
        assert run_cli("pig-sample", "--n", "50", "--c", "1", "--trunc", "20",
                       "--seed", "1", "--out", str(out), *extra) == 0
        return (out / "pig_samples.csv").read_bytes()

    def test_shift_alone_selects_the_shifted_ladder(self, tmp_path):
        shifted = self._draws(tmp_path / "a", "--shift", "2.5")
        default = self._draws(tmp_path / "c")
        assert shifted != default
        assert default == self._draws(tmp_path / "d", "--shift", "1")

    def test_integer_rule_with_other_shift_exit_2(self, tmp_path, capsys):
        assert run_cli("pig-sample", "--n", "50", "--rule", "integer",
                       "--shift", "2.5", "--out", str(tmp_path)) == 2
        assert "unrecognized arguments: --rule integer" in capsys.readouterr().err
        assert not (tmp_path / "pig_samples.csv").exists()


class TestFitDirichlet:
    def _fit(self, out, *extra):
        return run_cli("fit-dirichlet", "--data", FIXTURE, "--id-cols", "2",
                       "--iters", "150", "--burnin", "50", "--thin", "1",
                       "--seed", "7", "--trunc", "64", "--out", str(out),
                       *extra)

    def test_outputs_and_rerun_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert self._fit(out1) == 0
        assert self._fit(out2) == 0
        for name in ("samples.csv", "summary.json", "plot_data.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        iters, draws, names = read_samples_csv(out1 / "samples.csv")
        assert names == [f"alpha_{j}" for j in range(1, 7)]
        assert draws.shape == (100, 6)
        assert np.all(draws > 0)
        summary = json.loads((out1 / "summary.json").read_text())
        assert len(summary["parameters"]) == 6
        for row in summary["parameters"]:
            assert np.isfinite(row["mean"]) and row["mean"] > 0
        assert summary["meta"]["seed"] == 7
        plot_rows = (out1 / "plot_data.csv").read_text().splitlines()
        assert plot_rows[0] == "parameter,value"
        assert len(plot_rows) == 1 + 100 * 6

    def test_homogeneous_single_column(self, tmp_path):
        out = tmp_path / "h"
        assert self._fit(out, "--homogeneous") == 0
        _, draws, names = read_samples_csv(out / "samples.csv")
        assert names == ["alpha"]
        assert draws.shape == (100, 1)

    def test_multiple_chains_pool(self, tmp_path):
        out = tmp_path / "c"
        assert self._fit(out, "--chains", "3") == 0
        _, draws, _ = read_samples_csv(out / "samples.csv")
        assert draws.shape == (300, 6)
        meta = json.loads((out / "summary.json").read_text())["meta"]
        assert meta["chains"] == 3

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# run settings\niters=120\nburnin=20\nthin=1\n"
                       "seed=9\ntrunc=64\nid_cols=2\n"
                       f"data={FIXTURE}\nout={tmp_path / 'x'}\n")
        assert run_cli("fit-dirichlet", "--config", str(cfg)) == 0
        _, draws, _ = read_samples_csv(tmp_path / "x" / "samples.csv")
        assert draws.shape == (100, 6)
        # flag overrides the file value
        assert run_cli("fit-dirichlet", "--config", str(cfg),
                       "--iters", "60", "--burnin", "10",
                       "--out", str(tmp_path / "y")) == 0
        _, draws2, _ = read_samples_csv(tmp_path / "y" / "samples.csv")
        assert draws2.shape == (50, 6)

    def test_conflicting_prior_flags_exit_2(self):
        assert run_cli("fit-dirichlet", "--data", FIXTURE, "--id-cols", "2",
                       "--tau", "0.5", "--mean-alpha", "0.2") == 2

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("settings, named", [
        ({"tau": "0"}, "--tau must be"),
        ({"tau": "-1"}, "--tau must be"),
        ({"mean_alpha": "0"}, "--mean-alpha must be"),
        ({"tau": "0", "mean_alpha": "0.5"}, "mutually exclusive"),
        ({"tau": "1e-170"}, "tau 1e-170 is too small"),  # 2 tau^2 underflows
    ])
    def test_nonpositive_prior_values_exit_2(self, tmp_path, capsys, source,
                                             settings, named):
        if source == "flag":
            args = [f"--{key.replace('_', '-')}={value}"
                    for key, value in settings.items()]
        else:
            cfg = tmp_path / "prior.cfg"
            cfg.write_text("".join(f"{k}={v}\n" for k, v in settings.items()))
            args = ["--config", str(cfg)]
        assert self._fit(tmp_path / "out", *args) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_tiny_prior_tau_fits(self, tmp_path):
        out = tmp_path / "tiny"
        assert run_cli("fit-dirichlet", "--data", FIXTURE, "--id-cols", "2",
                       "--tau", "1e-3", "--out", str(out)) == 0
        _, draws, _ = read_samples_csv(out / "samples.csv")
        assert draws.size and np.all(np.isfinite(draws)) and np.all(draws > 0)

    def test_prior_tau_from_default_and_config(self, tmp_path):
        assert self._fit(tmp_path / "a") == 0
        cfg = tmp_path / "prior.cfg"
        cfg.write_text("mean_alpha=0.25\n")
        assert self._fit(tmp_path / "b", "--config", str(cfg)) == 0
        for out, tau in (("a", np.sqrt(np.pi / 2) / 6),
                         ("b", 0.25 * np.sqrt(np.pi / 2))):
            meta = json.loads((tmp_path / out / "summary.json").read_text())["meta"]
            assert meta["prior_tau"] == pytest.approx([tau] * 6, rel=1e-12)

    def test_thinning_that_keeps_no_draw_exit_2(self, tmp_path, capsys):
        assert self._fit(tmp_path / "out", "--iters", "10", "--burnin", "5",
                         "--thin", "10") == 2
        assert "iterations 10 - burn_in 5 < thin 10" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_file_exit_3(self):
        assert run_cli("fit-dirichlet", "--data", "does_not_exist.csv") == 3

    def test_bad_config_key_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("unknown_knob=1\n")
        assert run_cli("fit-dirichlet", "--data", FIXTURE, "--id-cols", "2",
                       "--config", str(cfg)) == 2


class TestFitGammaShape:
    @pytest.fixture()
    def reals_csv(self, tmp_path):
        rng = np.random.default_rng(2026)
        y = rng.gamma(3.0, 1.0 / 2.0, size=120)
        path = tmp_path / "y.csv"
        path.write_text("y\n" + "\n".join(f"{v:.17g}" for v in y) + "\n")
        return path

    def test_fit_emits_oracle_and_matches_it(self, tmp_path, reals_csv):
        out = tmp_path / "g"
        code = run_cli("fit-gamma-shape", "--data", str(reals_csv),
                       "--beta", "2.0", "--iters", "3000", "--burnin", "500",
                       "--thin", "5", "--seed", "4", "--trunc", "128",
                       "--out", str(out))
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        row = summary["parameters"][0]
        oracle = summary["meta"]["oracle"]
        assert row["parameter"] == "alpha"
        assert abs(row["mean"] - oracle["quadrature_mean"]) <= 5 * row["mcse"]
        _, draws, names = read_samples_csv(out / "samples.csv")
        assert names == ["alpha"] and np.all(draws > 0)

    def test_steep_posterior_fit_is_not_refused(self, tmp_path):
        # Gamma(20, 5) with n = 200 needs a finer oracle grid than the default
        y = np.random.default_rng(np.random.SeedSequence([1, 2, 2, 0])).gamma(
            20.0, 1.0 / 5.0, size=200)
        data = tmp_path / "y20.csv"
        data.write_text("y\n" + "".join(f"{v:.17g}\n" for v in y))
        out = tmp_path / "g20"
        code = run_cli("fit-gamma-shape", "--data", str(data), "--beta", "5.0",
                       "--iters", "600", "--burnin", "50", "--thin", "1",
                       "--seed", "3", "--out", str(out))
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        row, oracle = summary["parameters"][0], summary["meta"]["oracle"]
        assert abs(row["mean"] - oracle["quadrature_mean"]) <= 5 * row["mcse"]

    def test_rerun_byte_identical(self, tmp_path, reals_csv):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run_cli("fit-gamma-shape", "--data", str(reals_csv),
                           "--beta", "2.0", "--iters", "400", "--burnin", "50",
                           "--thin", "1", "--seed", "9", "--trunc", "128",
                           "--out", str(out)) == 0
            outs.append([(out / name).read_bytes() for name in
                         ("samples.csv", "summary.json", "plot_data.csv")])
        assert outs[0] == outs[1]

    def test_requires_beta(self, reals_csv):
        assert run_cli("fit-gamma-shape", "--data", str(reals_csv)) == 2


class TestPooling:
    def test_pooling_leaves_the_runs_unchanged(self):
        def run(seed):
            rng = np.random.default_rng(seed)
            return PosteriorSamples(rng.uniform(0.5, 2.0, (4, 2)), ["a", "b"],
                                    np.arange(1, 5), {"seed": seed})

        runs = [run(1), run(2)]
        before = [(r.draws.copy(), r.iters.copy(), dict(r.meta)) for r in runs]
        pooled = _pooled_samples(runs)
        assert pooled is not runs[0]
        for r, (draws, iters, meta) in zip(runs, before):
            assert np.array_equal(r.draws, draws)
            assert np.array_equal(r.iters, iters)
            assert r.meta == meta
        assert np.array_equal(pooled.draws, np.vstack([draws for draws, _, _ in before]))
        assert pooled.iters.tolist() == [1, 2, 3, 4, 1, 2, 3, 4]
        assert pooled.meta == {"seed": 1, "chains": 2, "chain_sizes": [4, 4]}


class TestPredict:
    def _samples(self, tmp_path):
        out = tmp_path / "fit"
        run_cli("fit-dirichlet", "--data", FIXTURE, "--id-cols", "2",
                "--iters", "80", "--burnin", "30", "--thin", "1",
                "--seed", "3", "--trunc", "64", "--out", str(out))
        return out / "samples.csv"

    def test_predictive_rows_group_to_simplex(self, tmp_path):
        samples = self._samples(tmp_path)
        out = tmp_path / "p"
        assert run_cli("predict", "--samples", str(samples),
                       "--draws-per-sample", "2", "--seed", "8",
                       "--out", str(out)) == 0
        lines = (out / "predictive.csv").read_text().splitlines()
        assert lines[0] == "category,value"
        body = [ln.split(",") for ln in lines[1:]]
        assert len(body) == 50 * 2 * 6
        values = np.array([float(v) for _, v in body]).reshape(-1, 6)
        assert np.max(np.abs(values.sum(axis=1) - 1.0)) <= 1e-10

    def test_rerun_byte_identical(self, tmp_path):
        samples = self._samples(tmp_path)
        outs = []
        for sub in ("p1", "p2"):
            out = tmp_path / sub
            run_cli("predict", "--samples", str(samples), "--seed", "8",
                    "--out", str(out))
            outs.append((out / "predictive.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_malformed_samples_exit_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("iter,alpha_1,alpha_2\n1,0.5,oops\n")
        assert run_cli("predict", "--samples", str(bad)) == 3

    @pytest.mark.parametrize("cell", ("0", "-0.5", "nan", "inf"))
    def test_nonpositive_or_nonfinite_samples_exit_3(self, tmp_path, capsys, cell):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"iter,alpha_1,alpha_2\n1,0.5,{cell}\n")
        assert run_cli("predict", "--samples", str(bad)) == 3
        assert f"{bad}: concentration samples must be finite and positive" in \
            capsys.readouterr().err


class TestOptionTable:
    @staticmethod
    def _other_value(default):
        """A value unlike the option's default as the command line spells it;
        None for a switch, which takes none."""
        if isinstance(default, bool):
            return None
        if isinstance(default, int):
            return str(default + 3)
        return "x.csv" if isinstance(default, str) else "0.75"

    @pytest.mark.parametrize("command, key", [
        (command, key) for command, (_, options) in COMMANDS.items()
        for key in options])
    def test_flag_and_config_key_resolve_alike(self, tmp_path, command, key):
        options = COMMANDS[command][1]
        default, value = options[key], self._other_value(options[key])
        required = [arg for other, d in options.items() if d == "" and other != key
                    for arg in ("--" + other.replace("_", "-"), "r.csv")]
        flag = ["--" + key.replace("_", "-")] + ([] if value is None else [value])
        cfg = tmp_path / "opt.cfg"
        cfg.write_text(f"{key}={'yes' if value is None else value}\n")
        parser = build_parser()
        from_flag = _resolve(parser.parse_args([command, *required, *flag]))
        from_config = _resolve(parser.parse_args(
            [command, *required, "--config", str(cfg)]))
        assert from_flag == from_config
        assert from_flag[key] != default
        assert type(from_flag[key]) is type(from_config[key]) is (
            float if default is None else type(default))

    @pytest.mark.parametrize("argv, message", [
        (("fit-dirichlet",), "--data is required"),
        (("fit-gamma-shape", "--beta", "2"), "--data is required"),
        (("predict",), "--samples is required"),
        (("predict", "--samples="), "--samples is required"),
    ])
    def test_required_option_left_empty_exit_2(self, capsys, argv, message):
        assert run_cli(*argv) == 2
        assert f"error: {message}" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_flag_exit_2(self, capsys):
        assert run_cli("validate", "--no-such-flag") == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", (
        ("predict", "--samples", "s.csv", "--trunc", "7"),
        ("validate", "--out", "x")))
    def test_flag_the_command_does_not_read_exit_2(self, capsys, argv):
        assert run_cli(*argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_missing_subcommand_exit_2(self, capsys):
        assert run_cli() == 2
        capsys.readouterr()
