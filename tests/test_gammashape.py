import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.stats import norm

from polyaig.chain import ChainConfig
from polyaig.dirichlet import grid_cdf, grid_mean_sd
from polyaig.gammashape import (GammaShapeChainState, GammaShapePrior,
                                ShapeHyper, run_shape_chain, shape_hyper,
                                shape_posterior_grid,
                                shape_posterior_quadrature, update_alpha_shape,
                                update_w_shape)
from polyaig.pig import PigSamplerConfig
from polyaig.rng import make_rng
from polyaig.special import EULER_GAMMA, log_gamma
from polyaig.summarize import batch_means_mcse

FAST_PIG = PigSamplerConfig(trunc_terms=200)


class TestPrior:
    def test_b_must_be_nonnegative_integer(self):
        with pytest.raises(ValueError):
            GammaShapePrior(b=1.5)
        with pytest.raises(ValueError):
            GammaShapePrior(b=-1)
        assert GammaShapePrior(b=0).b == 0

    @pytest.mark.parametrize("kwargs", [
        {"a": 0.0}, {"a": -2.0}, {"beta": 0.0}, {"c": np.inf},
    ])
    def test_domains(self, kwargs):
        with pytest.raises(ValueError):
            GammaShapePrior(**kwargs)


class TestShapeHyper:
    def test_unit_observations(self):
        hyper = shape_hyper([1.0, 1.0], GammaShapePrior(a=1.0, b=1, c=0.0,
                                                        beta=1.0))
        assert hyper.log_a == 0.0
        assert hyper.b == 3
        assert hyper.c == 2.0
        assert hyper.log_beta_y == 0.0

    def test_exponential_observations(self):
        hyper = shape_hyper([np.e, np.e**2],
                            GammaShapePrior(a=1.0, b=0, c=0.0, beta=np.e))
        assert hyper.log_a == pytest.approx(3.0, rel=1e-12)
        assert hyper.b == 2
        assert hyper.c == 2.0
        assert hyper.log_beta_y == pytest.approx(5.0, rel=1e-12)

    def test_log_domain_avoids_overflow(self):
        y = np.full(200, 1.5)
        hyper = shape_hyper(y, GammaShapePrior())
        assert np.isfinite(hyper.log_a)
        assert hyper.log_a == pytest.approx(200 * np.log(1.5), rel=1e-12)
        extreme = shape_hyper([1e-300, 1e300, 2.0], GammaShapePrior())
        assert np.isfinite(extreme.log_a) and np.isfinite(extreme.log_beta_y)

    def test_permutation_invariance_is_bitwise(self):
        rng = make_rng(1)
        y = rng.gamma(2.0, 1.0, size=64)
        prior = GammaShapePrior(a=2.0, b=2, c=1.0, beta=0.7)
        assert shape_hyper(y, prior) == shape_hyper(y[::-1].copy(), prior)

    def test_domain(self):
        with pytest.raises(ValueError):
            shape_hyper([1.0, -1.0], GammaShapePrior())
        with pytest.raises(ValueError):
            shape_hyper([], GammaShapePrior())


class TestUpdates:
    def test_w_count_and_support(self):
        hyper = ShapeHyper(log_a=0.0, b=3, c=2.0, log_beta_y=0.0)
        state = GammaShapeChainState(alpha_tilde=2.0, w=np.empty(3))
        w = update_w_shape(state, hyper, FAST_PIG, make_rng(2))
        assert w.shape == (1,)  # the total of the b' = 3 auxiliaries
        assert np.all(w > 0.0)

    def test_w_deterministic(self):
        hyper = ShapeHyper(log_a=0.0, b=5, c=2.0, log_beta_y=0.0)
        state = GammaShapeChainState(alpha_tilde=0.0, w=np.empty(5))
        a = update_w_shape(state, hyper, FAST_PIG, make_rng(3))
        b = update_w_shape(state, hyper, FAST_PIG, make_rng(3))
        assert np.array_equal(a, b)

    def test_alpha_conditional_is_tn_gamma_half(self):
        # b' = 2, log beta'_y = 0, sum w = 1: TN(EULER_GAMMA, 1/2) above -1
        hyper = ShapeHyper(log_a=0.0, b=2, c=1.0, log_beta_y=0.0)
        state = GammaShapeChainState(alpha_tilde=0.0, w=np.array([0.4, 0.6]))
        rng = make_rng(4)
        draws = np.array([update_alpha_shape(state, hyper, rng)
                          for _ in range(40_000)])
        sd = np.sqrt(0.5)
        a = (-1.0 - EULER_GAMMA) / sd
        truth = EULER_GAMMA + sd * norm.pdf(a) / norm.sf(a)
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert np.all(draws > -1.0)
        assert abs(draws.mean() - truth) <= 4 * se

    def test_alpha_collapses_when_w_large(self):
        hyper = ShapeHyper(log_a=0.0, b=4, c=1.0, log_beta_y=2.0)
        state = GammaShapeChainState(alpha_tilde=0.0,
                                     w=np.full(4, 1e8))
        mu = (EULER_GAMMA * 4 + 2.0) / (2.0 * 4e8)
        draw = update_alpha_shape(state, hyper, make_rng(5))
        assert abs(draw - mu) < 1e-3


class TestChain:
    def test_deterministic(self):
        y = make_rng(6).gamma(3.0, 0.5, size=40)
        prior = GammaShapePrior(beta=2.0)
        cfg = ChainConfig(iterations=400, burn_in=100, thin=3, seed=11,
                          pig_config=PigSamplerConfig(trunc_terms=50))
        s1 = run_shape_chain(y, prior, cfg)
        s2 = run_shape_chain(y, prior, cfg)
        assert np.array_equal(s1.draws, s2.draws)
        assert s1.size == cfg.retained

    def test_support(self):
        y = make_rng(7).gamma(0.8, 1.0, size=30)
        cfg = ChainConfig(iterations=600, burn_in=100, thin=1, seed=12,
                          pig_config=PigSamplerConfig(trunc_terms=50))
        samples = run_shape_chain(y, GammaShapePrior(beta=1.0), cfg)
        assert np.all(samples.draws > 0.0)

    def test_unit_data_matches_quadrature(self):
        # y identically 1, beta = 1: posterior depends only on 1/Gamma(alpha)^b'
        y = np.ones(10)
        prior = GammaShapePrior(a=1.0, b=1, c=0.0, beta=1.0)
        grid = shape_posterior_grid(y, prior)
        dens = shape_posterior_quadrature(y, prior, grid)
        truth, _ = grid_mean_sd(grid, dens)
        cfg = ChainConfig(iterations=11000, burn_in=1000, thin=10, seed=13,
                          pig_config=FAST_PIG)
        samples = run_shape_chain(y, prior, cfg)
        draws = samples.draws[:, 0]
        assert abs(draws.mean() - truth) <= 3.0 * batch_means_mcse(draws)

    def test_small_dataset_priors_b0_b2(self):
        rng = make_rng(14)
        y = rng.gamma(2.5, 1.0 / 1.5, size=18)
        for b in (0, 2):
            prior = GammaShapePrior(a=1.2, b=b, c=0.5, beta=1.5)
            grid = shape_posterior_grid(y, prior)
            dens = shape_posterior_quadrature(y, prior, grid)
            mean_truth, sd_truth = grid_mean_sd(grid, dens)
            cfg = ChainConfig(iterations=11000, burn_in=1000, thin=10,
                              seed=100 + b, pig_config=FAST_PIG)
            draws = run_shape_chain(y, prior, cfg).draws[:, 0]
            assert abs(draws.mean() - mean_truth) <= \
                3.0 * batch_means_mcse(draws)
            assert abs(draws.std(ddof=1) - sd_truth) <= 0.10 * sd_truth


class TestQuadrature:
    def test_normalization(self):
        y = make_rng(15).gamma(3.0, 0.5, size=25)
        prior = GammaShapePrior(beta=2.0)
        grid = shape_posterior_grid(y, prior)
        dens = shape_posterior_quadrature(y, prior, grid)
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-8)

    def test_mode_matches_golden_section(self):
        y = make_rng(16).gamma(3.0, 0.5, size=25)
        prior = GammaShapePrior(beta=2.0)
        hyper = shape_hyper(y, prior)
        grid = shape_posterior_grid(y, prior)
        dens = shape_posterior_quadrature(y, prior, grid)
        i = int(np.argmax(dens))

        def neg_log_post(a):
            return -(a * hyper.log_beta_y - hyper.b * log_gamma(a))

        res = minimize_scalar(neg_log_post, bracket=(0.5, 2.0, 20.0),
                              method="golden")
        step = grid[min(i + 1, grid.size - 1)] - grid[max(i - 1, 0)]
        assert abs(grid[i] - res.x) <= step

    def test_coarse_grid_refused(self):
        y = make_rng(17).gamma(3.0, 0.5, size=200)
        prior = GammaShapePrior(beta=2.0)
        with pytest.raises(ValueError, match="too coarse"):
            shape_posterior_quadrature(y, prior, np.linspace(0.05, 8.0, 60))

    def test_heavy_endpoint_refused(self):
        y = make_rng(18).gamma(3.0, 0.5, size=200)
        prior = GammaShapePrior(beta=2.0)
        with pytest.raises(ValueError, match="endpoint"):
            shape_posterior_quadrature(y, prior, np.geomspace(0.5, 3.05, 30000))

    def test_steep_posterior_grid_is_refined_until_accepted(self):
        # Gamma(20, 5) data, n = 200: with b' = 201 the default 20001-point
        # grid jumps ~0.7 in log density near alpha = 7, so it is refined.
        y = np.random.default_rng(np.random.SeedSequence([1, 2, 2, 0])).gamma(
            20.0, 1.0 / 5.0, size=200)
        prior = GammaShapePrior(beta=5.0)
        grid = shape_posterior_grid(y, prior)
        assert grid.size == 40001
        dens = shape_posterior_quadrature(y, prior, grid)
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-8)
        with pytest.raises(ValueError, match="too coarse"):
            shape_posterior_quadrature(
                y, prior, np.geomspace(grid[0], grid[-1], 20001))

    def test_accepted_default_grid_is_not_refined(self):
        y = make_rng(20).gamma(3.0, 0.5, size=200)
        grid = shape_posterior_grid(y, GammaShapePrior(beta=2.0))
        assert grid.size == 20001

    def test_cdf_usable_for_ks(self):
        y = make_rng(19).gamma(3.0, 0.5, size=50)
        prior = GammaShapePrior(beta=2.0)
        grid = shape_posterior_grid(y, prior)
        cdf = grid_cdf(grid, shape_posterior_quadrature(y, prior, grid))
        assert np.all(np.diff(cdf) >= 0.0)
        assert cdf[-1] == pytest.approx(1.0, abs=1e-12)
