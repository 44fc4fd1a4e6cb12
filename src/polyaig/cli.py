"""Batch command-line interface.

Subcommands: validate, pig-sample, fit-dirichlet, fit-gamma-shape, predict.
Flag precedence: command line > config file (--config, flat key=value) >
built-in defaults. No environment variables are consulted. Exit codes:
0 success / all checks pass, 1 validation failure, 2 usage or config error,
3 I/O or parse error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .chain import ChainConfig, PosteriorSamples
from .dirichlet import (AlphaPrior, grid_mean_sd, posterior_predictive,
                        run_chain, run_chain_homogeneous)
from .gammashape import (GammaShapePrior, run_shape_chain, shape_posterior_grid,
                         shape_posterior_quadrature)
from .io import (ParseError, format_rows, parse_counts_csv, parse_reals_csv,
                 read_samples_csv, write_long_csv, write_samples_csv,
                 write_summary_json)
from .pig import (PigParams, PigSamplerConfig, mc_transform,
                  pig_laplace_closed, pig_laplace_product, pig_sample)
from .rng import child_rng, gig_rvs, make_rng, truncated_normal_sample
from .summarize import summarize_samples

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_IO = 3

# tilt/argument grid for the transform checks in `validate`
VALIDATE_TILTS = (0.0, 1.0, float(np.sqrt(2.0)), 3.0)
VALIDATE_TS = (0.5, 1.0, 2.0)
TRANSFORM_BIAS_ALLOWANCE = 1e-3


class ConfigError(ValueError):
    """Bad flag combination or config-file value."""


# Each command's help line and its options with their defaults. Every option
# `some_name` is both the flag --some-name and the config key some_name, and
# both take the type of its default: a bool gives a switch, None a float left
# unset. An option whose default is "" is required.
COMMANDS = {
    "validate": ("run the built-in oracle checks",
                 {"draws": 50_000, "seed": 0, "trunc": 1000}),
    "pig-sample": ("draw from P-IG(d, c)",
                   {"n": 10_000, "c": 0.0, "shift": 1.0, "seed": 0,
                    "trunc": 1000, "out": "."}),
    "fit-dirichlet": ("posterior of Dirichlet concentrations from counts",
                      {"data": "", "id_cols": 1, "iters": 4000, "burnin": 1000,
                       "thin": 2, "tau": None, "mean_alpha": None,
                       "homogeneous": False, "chains": 1, "seed": 1,
                       "trunc": 200, "out": "."}),
    "fit-gamma-shape": ("posterior of the gamma shape from observations",
                        {"data": "", "beta": 0.0, "prior_a": 1.0, "prior_b": 1,
                         "prior_c": 0.0, "iters": 6000, "burnin": 1000,
                         "thin": 10, "seed": 1, "trunc": 200, "out": "."}),
    "predict": ("posterior-predictive simplex draws from samples",
                {"samples": "", "draws_per_sample": 1, "seed": 1, "out": "."}),
}

# An option means the same in every command that reads it.
HELP = {
    "c": "tilt parameter",
    "shift": "ladder start d_1 (default 1, the integer ladder)",
    "mean_alpha": "prior mean for each alpha_k (maps to tau)",
    "homogeneous": "single shared alpha",
    "beta": "known rate",
    "trunc": "series truncation for the P-IG sampler",
    "out": "output directory",
}


def _read_config_file(path):
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                if "=" not in text:
                    raise ConfigError(f"{path}:{line_no}: expected key=value")
                key, _, value = text.partition("=")
                out[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ParseError(f"cannot read config file: {exc}") from None
    return out


def _flag(key):
    return "--" + key.replace("_", "-")


def _option_type(default):
    """The type of an option's values: its default's, float when unset."""
    return float if default is None else type(default)


def _coerce(raw, like):
    if isinstance(like, bool):
        lowered = raw.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"expected a boolean, got {raw!r}")
    return _option_type(like)(raw)


def _resolve(args):
    """The options of `args.command`: explicit flag > config file > default.
    An option whose default is the empty string is required."""
    options = COMMANDS[args.command][1]
    file_cfg = _read_config_file(args.config) if args.config else {}
    resolved = {}
    for key, default in options.items():
        flag_value = getattr(args, key)
        if flag_value is not None:
            resolved[key] = flag_value
        elif key in file_cfg:
            try:
                resolved[key] = _coerce(file_cfg[key], default)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"config key {key}: {exc}") from None
        else:
            resolved[key] = default
    unknown = set(file_cfg) - set(options)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, default in options.items():
        if default == "" and not resolved[key]:
            raise ConfigError(f"{_flag(key)} is required")
    return resolved


def _ensure_outdir(path):
    os.makedirs(path, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def _check_rows_transform(n_draws, trunc, rng):
    rows = []
    config = PigSamplerConfig(trunc_terms=trunc)
    for c in VALIDATE_TILTS:
        params = PigParams(c)
        draws = pig_sample(params, config, rng, size=n_draws)
        for t in VALIDATE_TS:
            mc, se = mc_transform(draws, t)
            truth = pig_laplace_closed(params, t)
            tol = 3.0 * se + TRANSFORM_BIAS_ALLOWANCE
            rows.append((f"mc-transform c={c:.4f} t={t:.2f}", mc, truth, tol))
    return rows


def _check_rows_product(trunc_product=10**6):
    rows = []
    for c in VALIDATE_TILTS:
        params = PigParams(c)
        for t in VALIDATE_TS:
            log_prod = np.log(pig_laplace_product(params, t, trunc_product))
            log_closed = np.log(pig_laplace_closed(params, t))
            rows.append((f"log-product c={c:.4f} t={t:.2f}",
                         log_prod, log_closed, 1e-4))
    return rows


def _check_rows_gig(n_draws, rng):
    """GIG(-3/2) draws against the closed mean chi^2/(1 + omega), on both
    sides of the tilt-rejection split omega = chi*tilt = `rng._OMEGA_SPLIT`.
    No tilt-0 row: its variance is infinite, so a tolerance of 4 standard
    errors means nothing there."""
    rows = []
    for chi, tilt in ((1.0, 1.0), (0.5, 2.0), (2.0, 1.5), (0.5, 10.0)):
        draws = gig_rvs(np.full(n_draws, chi), np.full(n_draws, tilt), rng)
        se = draws.std(ddof=1) / np.sqrt(n_draws)
        rows.append((f"gig-mean nu=-1.5 chi={chi:.1f} tilt={tilt:.1f}",
                     float(draws.mean()), chi * chi / (1.0 + chi * tilt), 4.0 * se))
    return rows


def _check_rows_truncnorm(n_draws, rng):
    tau = np.sqrt(np.pi / 2.0) / 6.0
    draws = truncated_normal_sample(0.0, tau * tau, np.zeros(n_draws), rng)
    se = draws.std(ddof=1) / np.sqrt(n_draws)
    return [("truncnorm-prior-mean K=6", float(draws.mean()), 1.0 / 6.0, 4.0 * se)]


def cmd_validate(args):
    cfg = _resolve(args)
    if cfg["draws"] < 100:
        raise ConfigError("--draws must be at least 100")
    rng = make_rng(cfg["seed"])
    rows = []
    rows += _check_rows_transform(cfg["draws"], cfg["trunc"], rng)
    rows += _check_rows_product()
    rows += _check_rows_gig(cfg["draws"], rng)
    rows += _check_rows_truncnorm(cfg["draws"], rng)

    width = max(len(r[0]) for r in rows)
    print(f"{'check':<{width}}  {'statistic':>12}  {'truth':>12}  "
          f"{'tolerance':>12}  status")
    failures = 0
    for name, stat, truth, tol in rows:
        ok = abs(stat - truth) <= tol
        failures += not ok
        print(f"{name:<{width}}  {stat:12.6f}  {truth:12.6f}  {tol:12.6f}  "
              f"{'PASS' if ok else 'FAIL'}")
    print(f"{len(rows) - failures}/{len(rows)} checks passed "
          f"(draws={cfg['draws']}, trunc={cfg['trunc']}, seed={cfg['seed']})")
    return EXIT_OK if failures == 0 else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# pig-sample
# ---------------------------------------------------------------------------

def cmd_pig_sample(args):
    cfg = _resolve(args)
    params = PigParams(cfg["c"], cfg["shift"])
    if cfg["n"] < 1:
        raise ConfigError("--n must be >= 1")
    rng = make_rng(cfg["seed"])
    draws = pig_sample(params, PigSamplerConfig(trunc_terms=cfg["trunc"]),
                       rng, size=cfg["n"])
    out = os.path.join(_ensure_outdir(cfg["out"]), "pig_samples.csv")
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("value\n")
        for v in draws:
            fh.write(f"{v:.17g}\n")
    print(f"wrote {cfg['n']} draws to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit-dirichlet / fit-gamma-shape
# ---------------------------------------------------------------------------

def _pooled_samples(runs):
    """The runs stacked into one new PosteriorSamples; the runs are unchanged."""
    first = runs[0]
    if len(runs) == 1:
        return first
    meta = dict(first.meta)
    meta["chains"] = len(runs)
    meta["chain_sizes"] = [int(r.size) for r in runs]
    return PosteriorSamples(np.vstack([r.draws for r in runs]), list(first.names),
                            np.concatenate([r.iters for r in runs]), meta)


def _chain_config(cfg):
    return ChainConfig(
        iterations=cfg["iters"], burn_in=cfg["burnin"], thin=cfg["thin"],
        seed=cfg["seed"], pig_config=PigSamplerConfig(trunc_terms=cfg["trunc"]))


def _write_fit(out, samples):
    """samples.csv, summary.json and plot_data.csv (one row per draw and
    parameter) of a fit command."""
    outdir = _ensure_outdir(out)
    rows = format_rows(samples.draws)
    write_samples_csv(os.path.join(outdir, "samples.csv"), samples, rows)
    write_summary_json(os.path.join(outdir, "summary.json"),
                       summarize_samples(samples), samples.meta)
    write_long_csv(os.path.join(outdir, "plot_data.csv"), ("parameter", "value"),
                   samples.names, rows)
    print(f"wrote samples.csv, summary.json, plot_data.csv to {outdir}")
    return EXIT_OK


def cmd_fit_dirichlet(args):
    cfg = _resolve(args)
    if cfg["tau"] is not None and cfg["mean_alpha"] is not None:
        raise ConfigError("--tau and --mean-alpha are mutually exclusive")
    for key in ("tau", "mean_alpha"):
        if cfg[key] is not None and not 0.0 < cfg[key] < np.inf:
            raise ConfigError(f"{_flag(key)} must be finite and > 0, got {cfg[key]}")
    counts = parse_counts_csv(cfg["data"], id_cols=cfg["id_cols"])
    if cfg["tau"] is not None:
        prior = AlphaPrior(tau=cfg["tau"])
    elif cfg["mean_alpha"] is not None:
        prior = AlphaPrior.from_mean(cfg["mean_alpha"])
    else:
        prior = AlphaPrior.for_categories(counts.n_categories)
    chain_config = _chain_config(cfg)
    runner = run_chain_homogeneous if cfg["homogeneous"] else run_chain
    if cfg["chains"] < 1:
        raise ConfigError("--chains must be >= 1")
    if cfg["chains"] == 1:
        runs = [runner(counts, prior, chain_config)]
    else:
        runs = [runner(counts, prior, chain_config,
                       rng=child_rng(cfg["seed"], chain))
                for chain in range(cfg["chains"])]
    samples = _pooled_samples(runs)
    samples.meta["prior_tau"] = [prior.tau] * counts.n_categories
    return _write_fit(cfg["out"], samples)


def cmd_fit_gamma_shape(args):
    cfg = _resolve(args)
    if cfg["beta"] <= 0:
        raise ConfigError("--beta (known rate) must be positive")
    y = parse_reals_csv(cfg["data"])
    prior = GammaShapePrior(a=cfg["prior_a"], b=cfg["prior_b"],
                            c=cfg["prior_c"], beta=cfg["beta"])
    samples = run_shape_chain(y, prior, _chain_config(cfg))

    grid = shape_posterior_grid(y, prior)
    mean, sd = grid_mean_sd(grid, shape_posterior_quadrature(y, prior, grid))
    samples.meta["oracle"] = {"quadrature_mean": mean, "quadrature_sd": sd}
    return _write_fit(cfg["out"], samples)


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

def cmd_predict(args):
    cfg = _resolve(args)
    if cfg["draws_per_sample"] < 1:
        raise ConfigError("--draws-per-sample must be >= 1")
    _, draws, names = read_samples_csv(cfg["samples"])
    if draws.shape[1] < 2:
        raise ConfigError("predictive draws need K >= 2 concentration columns")
    if not np.all(np.isfinite(draws) & (draws > 0)):
        raise ParseError(f"{cfg['samples']}: concentration samples must be "
                         "finite and positive")
    samples = PosteriorSamples(draws, names, np.arange(1, draws.shape[0] + 1),
                               meta={})
    rng = make_rng(cfg["seed"])
    sims = posterior_predictive(samples, cfg["draws_per_sample"], rng)
    outdir = _ensure_outdir(cfg["out"])
    out = os.path.join(outdir, "predictive.csv")
    write_long_csv(out, ("category", "value"), names, format_rows(sims))
    print(f"wrote {sims.shape[0]} simplex draws to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="polyaig",
        description="Polya-inverse Gamma random variates and Gibbs samplers "
                    "for Dirichlet concentration and gamma shape inference.")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (summary, options) in COMMANDS.items():
        sub = subs.add_parser(command, help=summary)
        for key, default in options.items():
            kind = ({"action": "store_const", "const": True}
                    if isinstance(default, bool) else {"type": _option_type(default)})
            sub.add_argument(_flag(key), help=HELP.get(key), **kind)
        sub.add_argument("--config",
                         help="flat key=value config file (flags take precedence)")
        # looked up on each build, so a rebound cmd_* is the one that runs
        sub.set_defaults(func=globals()["cmd_" + command.replace("-", "_")])
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
