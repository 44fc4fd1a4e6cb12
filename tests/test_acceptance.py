"""Acceptance suite: the library's external acceptance contract.

One test per criterion, each printing a `[criterion N] ... PASS/FAIL` line
(run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete). Tolerances are pinned here, not calibrated elsewhere.
"""

import json
import time

import numpy as np
import pytest
from scipy.stats import ks_2samp

from polyaig.chain import ChainConfig
from polyaig.cli import main as cli_main
from polyaig.dirichlet import (AlphaPrior, CountMatrix, alpha_coefficients,
                               grid_cdf, grid_mean_sd,
                               homogeneous_posterior_grid,
                               quadrature_posterior, run_chain_homogeneous)
from polyaig.gammashape import (GammaShapePrior, run_shape_chain,
                                shape_posterior_grid,
                                shape_posterior_quadrature)
from polyaig.io import parse_counts_csv, read_samples_csv
from polyaig.pig import (PigParams, PigSamplerConfig, mc_transform,
                         pig_laplace_closed, pig_laplace_product, pig_sample)
from polyaig.rng import gig_rvs, make_rng, truncated_normal_sample
from polyaig.special import EULER_GAMMA, log_gamma
from polyaig.summarize import batch_means_mcse

FIXTURE = "data/opioid_deaths.csv"
VALIDATION_PIG = PigSamplerConfig(trunc_terms=1000)
CHAIN_PIG = PigSamplerConfig(trunc_terms=200)
BIAS_ALLOWANCE = 1e-3


def report(n, label, ok):
    print(f"[criterion {n}] {label}: {'PASS' if ok else 'FAIL'}")
    return ok


def ks_against_grid_cdf(draws, grid, density):
    cdf_vals = np.interp(np.sort(draws), grid, grid_cdf(grid, density))
    n = draws.size
    upper = np.max(np.abs(cdf_vals - np.arange(1, n + 1) / n))
    lower = np.max(np.abs(cdf_vals - np.arange(0, n) / n))
    return max(upper, lower)


def test_criterion_1_untilted_transform_identity():
    """MC transform of 1e5 truncated-convolution draws vs exp(-g t)/Gamma(t+1)."""
    t0 = time.perf_counter()
    draws = pig_sample(PigParams(), VALIDATION_PIG, make_rng(101),
                       size=10**5)
    ok = True
    for t in (0.5, 1.0, 2.0):
        mc, se = mc_transform(draws, t)
        truth = float(np.exp(-EULER_GAMMA * t - log_gamma(t + 1.0)))
        if t == 1.0:
            assert truth == pytest.approx(0.561459, abs=5e-7)
        ok &= abs(mc - truth) <= 3.0 * se + BIAS_ALLOWANCE
    elapsed = time.perf_counter() - t0
    ok &= elapsed <= 120.0
    assert report(1, f"untilted transform identity ({elapsed:.0f}s)", ok)


def test_criterion_2_tilted_transform_and_product_agreement():
    """Tilted transforms at c in {1, sqrt2, 3} plus product/closed agreement."""
    t0 = time.perf_counter()
    ok = True
    for i, c in enumerate((1.0, float(np.sqrt(2.0)), 3.0)):
        params = PigParams(c=c)
        draws = pig_sample(params, VALIDATION_PIG, make_rng(210 + i),
                           size=10**5)
        for t in (0.5, 1.0, 2.0):
            mc, se = mc_transform(draws, t)
            ok &= abs(mc - pig_laplace_closed(params, t)) <= 3.0 * se \
                + BIAS_ALLOWANCE
            log_gap = abs(np.log(pig_laplace_product(params, t, 10**6))
                          - np.log(pig_laplace_closed(params, t)))
            ok &= log_gap <= 1e-4
    elapsed = time.perf_counter() - t0
    ok &= elapsed <= 120.0
    assert report(2, f"tilted transforms and product agreement ({elapsed:.0f}s)",
                  ok)


def test_criterion_3_gig_correctness():
    """GIG(-3/2, 1, 1) mean = 1/2; zero-tilt branch matches inverted gamma."""
    draws = gig_rvs(np.full(10**6, 1.0), np.full(10**6, 1.0), make_rng(33))
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    ok = abs(draws.mean() - 0.5) <= 4.0 * se

    mine = gig_rvs(np.full(10**5, 1.0), np.full(10**5, 0.0), make_rng(34))
    reference = 0.5 / make_rng(35).standard_gamma(1.5, size=10**5)
    ok &= ks_2samp(mine, reference).statistic <= 0.01
    assert report(3, "gig sampler mean and zero-tilt reduction", ok)


def test_criterion_4_gamma_shape_replication():
    """200 observations from Gamma(3, 2); 500 retained draws vs quadrature."""
    t0 = time.perf_counter()
    y = make_rng(20260808).gamma(3.0, 1.0 / 2.0, size=200)
    prior = GammaShapePrior(a=1.0, b=1, c=0.0, beta=2.0)
    config = ChainConfig(iterations=6000, burn_in=1000, thin=10, seed=5,
                         pig_config=CHAIN_PIG)
    samples = run_shape_chain(y, prior, config)
    draws = samples.draws[:, 0]
    assert draws.size == 500

    grid = shape_posterior_grid(y, prior)
    density = shape_posterior_quadrature(y, prior, grid)
    truth_mean, _ = grid_mean_sd(grid, density)
    ks = ks_against_grid_cdf(draws, grid, density)
    mean_gap = abs(draws.mean() - truth_mean)
    mcse = batch_means_mcse(draws)
    elapsed = time.perf_counter() - t0
    ok = (ks <= 0.08) and (mean_gap <= 3.0 * mcse) and elapsed <= 300.0
    assert report(
        4, f"gamma-shape replication (KS={ks:.3f}, "
           f"mean gap={mean_gap:.4f} vs 3*MCSE={3*mcse:.4f}, {elapsed:.0f}s)",
        ok)


def test_criterion_5_dirichlet_oracle_equivalence():
    """Shared-alpha instance (K=3, M=5, counts <= 20) vs exact quadrature."""
    t0 = time.perf_counter()
    counts = CountMatrix.from_array([[12, 7, 3],
                                     [9, 9, 6],
                                     [14, 2, 8],
                                     [5, 11, 4],
                                     [8, 6, 10]])
    prior = AlphaPrior.for_categories(3)
    config = ChainConfig(iterations=21000, burn_in=1000, thin=10, seed=11,
                         pig_config=CHAIN_PIG)
    samples = run_chain_homogeneous(counts, prior, config)
    draws = samples.draws[:, 0]
    assert draws.size == 2000

    grid = homogeneous_posterior_grid(counts, prior)
    density = quadrature_posterior(counts, prior, grid)
    truth_mean, truth_sd = grid_mean_sd(grid, density)
    mean_gap = abs(draws.mean() - truth_mean)
    mcse = batch_means_mcse(draws)
    sd_rel = abs(draws.std(ddof=1) - truth_sd) / truth_sd
    ks = ks_against_grid_cdf(draws, grid, density)
    elapsed = time.perf_counter() - t0
    ok = (mean_gap <= 3.0 * mcse) and (sd_rel <= 0.10) and (ks <= 0.08) \
        and elapsed <= 300.0
    assert report(
        5, f"dirichlet oracle equivalence (mean gap={mean_gap:.4f} vs "
           f"3*MCSE={3*mcse:.4f}, sd rel={sd_rel:.3f}, KS={ks:.3f}, "
           f"{elapsed:.0f}s)", ok)


def test_criterion_6_alpha_update_coefficients():
    """Alpha-update coefficients (a, b) on a hand-worked state, M=1, K=2.

    Expanding the model's joint density of (alpha, p, eta, w): the
    truncated-normal prior gives exp(-alpha_k^2 / 2 tau^2); Dir(p_m | alpha)
    gives Gamma(sum alpha) / prod Gamma(alpha_k) * prod p_mk^(alpha_k - 1);
    each Gamma(sum alpha) becomes the integrand eta_m^(sum alpha - 1) e^-eta_m;
    and each 1/Gamma(alpha_k) becomes alpha_k e^(EULER_GAMMA alpha_k)
    e^(-alpha_k^2 w_mk) times an alpha-free P-IG density. As a function of
    alpha_k the joint is therefore alpha^M exp(-a alpha^2 + b alpha) with
    a_k = sum_m w_mk + 1/(2 tau^2) and
    b_k = sum_m log eta_m + M EULER_GAMMA + sum_m log p_mk.
    The counts enter only through p, so here a_1 = 0.5 + 1/2 = 1 and
    b_1 = ln 3 + EULER_GAMMA + ln 0.6 = 1.165002330.

    The test also builds that joint term by term from log_gamma, evaluates it
    at several alpha_1 and recovers (a, b) from it by least squares, so the
    pinned values are checked against the model, not only the closed form.
    """
    m = 1
    w = np.array([[0.5, 0.25]])
    p = np.array([[0.6, 0.4]])
    eta = np.array([3.0])
    tau = 1.0
    a, b = alpha_coefficients(w, np.log(p), eta, AlphaPrior(tau=tau))

    expected_a = 0.5 + 1.0 / (2.0 * tau * tau)
    expected_b = np.log(3.0) + EULER_GAMMA + np.log(0.6)
    assert expected_b == pytest.approx(1.165002330, abs=5e-10)

    def log_augmented_joint(alpha_1, alpha_2=0.7):
        alpha = np.array([alpha_1, alpha_2])
        total = alpha.sum()
        log_prior = -np.sum(alpha * alpha) / (2.0 * tau * tau)
        log_dirichlet = (log_gamma(total) - np.sum(log_gamma(alpha))
                         + np.sum((alpha - 1.0) * np.log(p[0])))
        # Gamma(sum alpha) -> eta^(sum alpha - 1) e^-eta
        gamma_swap = (-log_gamma(total) + (total - 1.0) * np.log(eta[0])
                      - eta[0])
        # 1/Gamma(alpha_k) -> alpha_k e^(EULER_GAMMA alpha_k - alpha_k^2 w_k)
        reciprocal_swap = np.sum(log_gamma(alpha) + np.log(alpha)
                                 + EULER_GAMMA * alpha - alpha * alpha * w[0])
        return log_prior + log_dirichlet + gamma_swap + reciprocal_swap

    grid = np.array([0.25, 0.5, 1.0, 2.0, 3.0])
    target = np.array([log_augmented_joint(x) for x in grid]) - m * np.log(grid)
    design = np.column_stack([-grid * grid, grid, np.ones_like(grid)])
    coef = np.linalg.lstsq(design, target, rcond=None)[0]
    assert np.max(np.abs(design @ coef - target)) <= 1e-9
    assert abs(coef[0] - expected_a) <= 1e-9
    assert abs(coef[1] - expected_b) <= 1e-9

    ok_a = abs(a[0] - expected_a) <= 1e-9
    ok_b = abs(b[0] - expected_b) <= 1e-9
    report(6, f"alpha-update coefficients from the augmented joint "
              f"(a={a[0]:.6f} vs {expected_a:.6f}, "
              f"b={b[0]:.9f} vs {expected_b:.9f})", ok_a and ok_b)
    assert ok_a, f"a = {a[0]:.9f}, the augmented joint gives {expected_a}"
    assert ok_b, (
        f"b = {b[0]:.9f}, the augmented joint gives "
        f"ln 3 + EULER_GAMMA + ln 0.6 = {expected_b:.9f}")


def test_criterion_7_prior_calibration():
    """Truncated-normal prior with tau = (1/K) sqrt(pi/2) has mean 1/K."""
    k = 6
    tau = np.sqrt(np.pi / 2.0) / k
    draws = truncated_normal_sample(0.0, tau * tau, np.zeros(10**6), make_rng(77))
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    ok = abs(draws.mean() - 1.0 / k) <= 4.0 * se
    assert report(7, f"prior calibration mean 1/{k}", ok)


def test_criterion_8_pipeline_end_to_end(tmp_path):
    """Fixture parses to the published snapshot; fit + predict reproduce."""
    counts = parse_counts_csv(FIXTURE, id_cols=2)
    ok = counts.unit_labels[0] == "CT|2015"
    ok &= np.array_equal(counts.counts[0], [118, 96, 298, 58, 170, 18])
    ok &= int(counts.row_sums[0]) == 758

    def run_pipeline(tag):
        out = tmp_path / tag
        code = cli_main(["fit-dirichlet", "--data", FIXTURE, "--id-cols", "2",
                         "--iters", "400", "--burnin", "100", "--thin", "2",
                         "--seed", "7", "--trunc", "128", "--out", str(out)])
        code |= cli_main(["predict", "--samples", str(out / "samples.csv"),
                          "--draws-per-sample", "2", "--seed", "9",
                          "--out", str(out)])
        return code, out

    code1, out1 = run_pipeline("run1")
    code2, out2 = run_pipeline("run2")
    ok &= code1 == 0 and code2 == 0
    for name in ("samples.csv", "summary.json", "plot_data.csv",
                 "predictive.csv"):
        ok &= (out1 / name).read_bytes() == (out2 / name).read_bytes()

    _, draws, _ = read_samples_csv(out1 / "samples.csv")
    ok &= draws.shape == (150, 6) and bool(np.all(draws > 0))
    body = (out1 / "predictive.csv").read_text().splitlines()[1:]
    values = np.array([float(line.split(",")[1]) for line in body])
    ok &= values.size == 150 * 2 * 6
    ok &= np.max(np.abs(values.reshape(-1, 6).sum(axis=1) - 1.0)) <= 1e-10
    summary = json.loads((out1 / "summary.json").read_text())
    ok &= all(np.isfinite(row["mean"]) and row["mean"] > 0
              for row in summary["parameters"])
    assert report(8, "pipeline end-to-end on the bundled snapshot", ok)
