import re

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.special import gammaln, ndtr

from polyaig.chain import ChainConfig, PosteriorSamples
from polyaig import dirichlet
from polyaig.dirichlet import (_GRID_FLOOR, _GRID_POINTS, AlphaPrior,
                               CountMatrix, DirichletChainState,
                               _homogeneous_log_post, alpha_coefficients, alpha_mode,
                               gibbs_sweep, grid_cdf,
                               grid_mean_sd, homogeneous_posterior_grid,
                               initial_state, modified_half_normal_sample,
                               normalize_on_grid, posterior_grid,
                               posterior_predictive, quadrature_posterior,
                               quadrature_posterior_k2, run_chain,
                               run_chain_homogeneous, update_eta,
                               update_p, update_w)
from polyaig.io import parse_counts_csv
from polyaig.pig import PigParams, PigSamplerConfig, _tail_mean_ladder
from polyaig.rng import MAX_REJECTION_PASSES, make_rng, truncated_normal_sample
from polyaig.special import EULER_GAMMA, log_gamma
from polyaig.summarize import batch_means_mcse, effective_sample_size
from quad_oracle import quad_mean
from test_rng import StuckGenerator

FAST_PIG = PigSamplerConfig(trunc_terms=200)


def chain_mcse(draws):
    return batch_means_mcse(draws)


def _marginal_log_likelihood(n_row, alpha):
    """Log marginal p(n | alpha) of one count row, p integrated out and
    the multinomial coefficient dropped."""
    n = np.asarray(n_row, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if n.shape != alpha.shape:
        raise ValueError("count row and alpha must have matching length")
    total = alpha.sum()
    return float(log_gamma(total) - log_gamma(total + n.sum())
                 + np.sum(log_gamma(n + alpha) - log_gamma(alpha)))


def _per_unit_log_post(counts, tau, grid):
    """The shared-alpha log posterior summed unit by unit and cell by cell."""
    k = counts.n_categories
    log_f = -0.5 * grid**2 / tau**2
    for n in counts.counts:
        log_f = log_f + log_gamma(k * grid) - log_gamma(k * grid + float(n.sum()))
        for nk in n:
            log_f = log_f + log_gamma(nk + grid) - log_gamma(grid)
    return log_f


def _forty_count_units(m, seed=0):
    """M units of 40 counts over K = 6 categories."""
    rng = make_rng(seed)
    return CountMatrix.from_array(rng.multinomial(40, rng.dirichlet(np.ones(6)),
                                                  size=m))


def _permuted_categories(counts, order):
    order = list(order)
    return CountMatrix.from_array(counts.counts[:, order], counts.unit_labels,
                                  [counts.category_labels[j] for j in order])


def _pig_mean(params, config):
    """Exact P-IG mean: the term means delta_k^2/(1 + delta_k |c|) plus the
    tail mean."""
    delta = 1.0 / (np.sqrt(2.0) * params.d_values(config.trunc_terms))
    head = np.sum(delta * delta / (1.0 + delta * params.tilt))
    return float(head + _tail_mean_ladder(params.shift, config.trunc_terms,
                                          params.tilt))


class TestCountMatrix:
    def test_basic(self):
        cm = CountMatrix.from_array([[1, 2], [3, 0]], ["a", "b"], ["x", "y"])
        assert cm.n_units == 2 and cm.n_categories == 2
        assert np.array_equal(cm.row_sums, [3, 3])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CountMatrix.from_array([[1, -1]])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_rejected_before_the_integer_cast(self, bad):
        with pytest.raises(ValueError, match="counts must be integers"):
            CountMatrix.from_array([[1.0, bad]])

    def test_all_zero_row_named(self):
        with pytest.raises(ValueError, match="unit_2"):
            CountMatrix.from_array([[1, 2], [0, 0]])

    def test_label_lengths(self):
        with pytest.raises(ValueError):
            CountMatrix.from_array([[1, 2]], unit_labels=["a", "b"])

    def test_permuted_categories(self):
        cm = CountMatrix.from_array([[1, 2, 3]], category_labels=["x", "y", "z"])
        pm = _permuted_categories(cm, [2, 0, 1])
        assert pm.category_labels == ["z", "x", "y"]
        assert np.array_equal(pm.counts, [[3, 1, 2]])

    def test_empty_allowed_for_quadrature(self):
        cm = CountMatrix.from_array(np.zeros((0, 3), dtype=np.int64))
        assert cm.n_units == 0


class TestAlphaPrior:
    def test_default_mean_is_inverse_k(self):
        prior = AlphaPrior.for_categories(6)
        assert prior.mean == pytest.approx(1 / 6, rel=1e-12)
        assert prior.tau == pytest.approx(np.sqrt(np.pi / 2) / 6)

    def test_from_mean_roundtrip(self):
        assert AlphaPrior.from_mean(0.25).mean == pytest.approx(0.25)

    def test_tau_must_be_one_finite_positive_number(self):
        # one tau serves every category: a sequence or array is refused
        for tau in ((1.0, 2.0), [1.0, 2.0], np.array([1.0]), np.nan, np.inf, 0, -1):
            with pytest.raises(ValueError, match=re.escape(f"got {tau!r}")):
                AlphaPrior(tau=tau)

    def test_positive(self):
        with pytest.raises(ValueError):
            AlphaPrior(tau=0.0)

    def test_tau_whose_prior_precision_overflows_is_refused(self):
        assert AlphaPrior(tau=1e-150).tau == 1e-150  # 1/(2 tau^2) = 5e299
        # 2 tau^2 is subnormal (1/x overflows) or underflows to 0.0
        for tau in (1e-160, 1e-170):
            with pytest.raises(ValueError, match=f"tau {tau!r} is too small"):
                AlphaPrior(tau=tau)


class TestMarginalLogLikelihood:
    def test_all_zero_counts(self):
        assert _marginal_log_likelihood([0, 0, 0], [0.4, 1.0, 2.2]) == 0.0

    def test_single_count(self):
        assert _marginal_log_likelihood([1, 0], [1.0, 1.0]) == pytest.approx(
            np.log(0.5), rel=1e-12)

    def test_three_counts(self):
        assert _marginal_log_likelihood([2, 1], [1.0, 1.0]) == pytest.approx(
            np.log(1 / 12), rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            _marginal_log_likelihood([1, 2, 3], [1.0, 1.0])


def _toy_state(counts, prior, seed=0):
    return initial_state(counts, np.full(counts.n_categories, prior.mean), FAST_PIG,
                         make_rng(seed))


class TestUpdates:
    def test_eta_is_gamma_of_alpha_sum(self):
        counts = CountMatrix.from_array([[4, 3], [1, 2], [5, 5]])
        prior = AlphaPrior(tau=1.0)
        state = _toy_state(counts, prior)
        state.alpha = np.array([1.2, 0.8])
        rng = make_rng(123)
        draws = np.array([update_eta(state, rng) for _ in range(40_000)])
        se = draws.std(ddof=1) / np.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - 2.0) <= 4 * se.max())

    def test_eta_consumes_exactly_m_draws(self):
        counts = CountMatrix.from_array([[4, 3], [1, 2]])
        state = _toy_state(counts, AlphaPrior(tau=1.0))
        rng_a, rng_b = make_rng(9), make_rng(9)
        update_eta(state, rng_a)
        rng_b.standard_gamma(float(state.alpha.sum()), size=2)
        assert rng_a.random() == rng_b.random()

    def test_w_marginal_mean_tracks_tilt(self):
        counts = CountMatrix.from_array([[2, 7]])
        state = _toy_state(counts, AlphaPrior(tau=1.0))
        state.alpha = np.array([0.4, 2.5])
        rng = make_rng(7)
        draws = np.stack([update_w(state, FAST_PIG, rng) for _ in range(30_000)])
        for k, alpha_k in enumerate(state.alpha):
            truth = _pig_mean(PigParams(c=np.sqrt(2) * alpha_k), FAST_PIG)
            col = draws[:, 0, k]
            se = col.std(ddof=1) / np.sqrt(col.size)
            assert abs(col.mean() - truth) <= 4 * se

    def test_w_column_totals_sum_m_draws(self):
        # M = 3 units: each column total is the sum of three P-IG draws
        counts = CountMatrix.from_array([[2, 7], [1, 0], [4, 4]])
        state = _toy_state(counts, AlphaPrior(tau=1.0))
        state.alpha = np.array([0.4, 2.5])
        rng = make_rng(17)
        draws = np.stack([update_w(state, FAST_PIG, rng) for _ in range(20_000)])
        assert draws.shape == (20_000, 1, 2)
        for k, alpha_k in enumerate(state.alpha):
            truth = 3 * _pig_mean(PigParams(c=np.sqrt(2) * alpha_k), FAST_PIG)
            col = draws[:, 0, k]
            se = col.std(ddof=1) / np.sqrt(col.size)
            assert abs(col.mean() - truth) <= 4 * se

    @staticmethod
    def _alpha_state(alpha):
        # update_p reads only alpha from the state
        return DirichletChainState(alpha=np.asarray(alpha, dtype=float),
                                   log_p=None, w=None, eta=None)

    def test_p_posterior_mean(self):
        counts = CountMatrix.from_array(np.tile([2, 1], (40_000, 1)))
        rows = np.exp(update_p(self._alpha_state([1.0, 1.0]), counts, make_rng(8)))
        se = rows[:, 0].std(ddof=1) / np.sqrt(rows.shape[0])
        assert abs(rows[:, 0].mean() - 0.6) <= 4 * se
        assert np.max(np.abs(rows.sum(axis=1) - 1.0)) <= 1e-10

    def test_uniform_dirichlet_when_counts_zero(self):
        counts = CountMatrix.from_array(np.tile([0, 1], (40_000, 1)))
        # Dirichlet(1, 2): E[p_1] = 1/3
        rows = np.exp(update_p(self._alpha_state([1.0, 1.0]), counts,
                               make_rng(12))[:, 0])
        se = rows.std(ddof=1) / np.sqrt(rows.size)
        assert abs(rows.mean() - 1 / 3) <= 4 * se

    def test_each_unit_gets_its_own_dirichlet(self):
        # distinct count rows, tiled so that one call holds 10,000 copies of
        # each; normalizing along the wrong axis cannot match every row
        base = np.array([[5, 1, 0], [0, 2, 7], [1, 1, 1], [12, 0, 3]])
        alpha = np.array([0.5, 1.0, 2.0])
        counts = CountMatrix.from_array(np.tile(base, (10_000, 1)))
        p = np.exp(update_p(self._alpha_state(alpha), counts, make_rng(13)))
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-10
        for m, row in enumerate(base):
            draws = p[m::len(base)]
            truth = (row + alpha) / (row + alpha).sum()
            se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
            assert np.all(np.abs(draws.mean(axis=0) - truth) <= 4 * se)


class TestAlphaCoefficients:
    def test_hand_worked_state(self):
        # M=1, K=2: w_11 = 0.5, eta_1 = 3, log p_11 = ln 0.6, tau^2 = 1:
        # a_1 = 0.5 + 1/2 = 1; b_1 = ln 3 + EULER_GAMMA + ln 0.6.
        w = np.array([[0.5, 0.25]])
        log_p = np.log(np.array([[0.6, 0.4]]))
        eta = np.array([3.0])
        a, b = alpha_coefficients(w, log_p, eta, AlphaPrior(tau=1.0))
        assert a[0] == pytest.approx(1.0, abs=1e-12)
        assert b[0] == pytest.approx(1.165002329803652, abs=1e-12)
        assert b[0] == pytest.approx(np.log(3.0) + EULER_GAMMA + np.log(0.6),
                                     abs=1e-12)

    def test_prior_term_vanishes_for_flat_tau(self):
        w = np.array([[0.5, 0.25], [1.5, 2.0]])
        log_p = np.full((2, 2), np.log(0.5))
        eta = np.array([1.0, 2.0])
        a, _ = alpha_coefficients(w, log_p, eta, AlphaPrior(tau=1e9))
        assert np.allclose(a, w.sum(axis=0), rtol=0, atol=1e-12)

    def test_column_totals_give_the_same_coefficients(self):
        w = np.array([[0.5, 0.25, 3.0], [1.5, 2.0, 0.125], [0.75, 0.5, 1.0]])
        log_p = np.log(np.array([[0.2, 0.3, 0.5], [0.6, 0.3, 0.1], [0.25, 0.25, 0.5]]))
        eta = np.array([1.0, 2.0, 0.5])
        prior = AlphaPrior(tau=0.5)
        a, b = alpha_coefficients(w, log_p, eta, prior)
        a_tot, b_tot = alpha_coefficients(w.sum(axis=0, keepdims=True), log_p, eta, prior)
        assert np.array_equal(a, a_tot) and np.array_equal(b, b_tot)

    def test_shared_alpha_coefficients_from_the_augmented_joint(self):
        # shared alpha, M = 2, K = 3: the joint term by term from log_gamma
        # (Dir(p_m | alpha 1_K), Gamma(K alpha) -> eta_m^(K alpha - 1) e^-eta_m,
        # each 1/Gamma(alpha) -> alpha e^(EULER_GAMMA alpha - alpha^2 w_mk))
        # is alpha^(M K) exp(-a alpha^2 + b alpha) up to alpha-free factors
        w = np.array([[0.5, 0.25, 1.5], [0.125, 2.0, 0.75]])
        p = np.array([[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]])
        eta = np.array([1.5, 0.4])
        tau = 0.8
        m, k = p.shape

        def log_augmented_joint(alpha):
            log_prior = -alpha * alpha / (2.0 * tau * tau)
            log_dirichlet = m * (log_gamma(k * alpha) - k * log_gamma(alpha)) \
                + (alpha - 1.0) * np.log(p).sum()
            gamma_swap = np.sum(-log_gamma(k * alpha)
                                + (k * alpha - 1.0) * np.log(eta) - eta)
            reciprocal_swap = np.sum(log_gamma(alpha) + np.log(alpha)
                                     + EULER_GAMMA * alpha - alpha * alpha * w)
            return log_prior + log_dirichlet + gamma_swap + reciprocal_swap

        grid = np.array([0.25, 0.5, 1.0, 2.0, 3.0])
        target = np.array([log_augmented_joint(x) for x in grid]) - m * k * np.log(grid)
        design = np.column_stack([-grid * grid, grid, np.ones_like(grid)])
        coef = np.linalg.lstsq(design, target, rcond=None)[0]
        assert np.max(np.abs(design @ coef - target)) <= 1e-9
        a, b = alpha_coefficients(np.array([[w.sum()]]), np.log(p), eta,
                                  AlphaPrior(tau=tau))
        assert a.shape == b.shape == (1,)
        assert abs(a[0] - coef[0]) <= 1e-9 and abs(b[0] - coef[1]) <= 1e-9

    def test_symmetry_across_categories(self):
        w = np.array([[0.7, 0.7], [0.2, 0.2]])
        log_p = np.full((2, 2), np.log(0.5))
        eta = np.array([1.3, 0.4])
        a, b = alpha_coefficients(w, log_p, eta, AlphaPrior(tau=2.0))
        assert a[0] == a[1] and b[0] == b[1]


def _alpha_log_density(power, a, b):
    """log of the alpha conditional x^power exp(-a x^2 + b x), unnormalized."""
    return lambda x: power * np.log(x) + x * (b - a * x)


def _alpha_cdf(power, a, b):
    """CDF of the alpha conditional by quadrature on a fine geometric grid."""
    log_f = _alpha_log_density(power, a, b)
    coarse = posterior_grid(log_f)
    grid = np.geomspace(coarse[0], coarse[-1], 16 * (coarse.size - 1) + 1)
    cdf = grid_cdf(grid, normalize_on_grid(grid, log_f(grid)))
    return lambda v: np.interp(v, grid, cdf)


class TestAlphaKernel:
    """`modified_half_normal_sample` against quadrature of its target, and
    the two hats it draws from against their definition."""

    @pytest.mark.parametrize("power, a, b", [
        (1, 1.0, -1000.0), (1, 0.05, -1e4), (6, 14.0, 3.0), (36, 40.0, -8.0),
        (1000, 500.0, -50.0), (6, 0.5, 20.0), (61, 39.0, -20.0), (201, 20.0, 800.0)])
    def test_draws_match_quadrature(self, power, a, b):
        # 200,000 draws: KS then sees a 3.5% error in the scale of a draw
        x = modified_half_normal_sample(power, np.full(200_000, a), np.full(200_000, b),
                                        make_rng(3))
        assert np.all(x > 0.0)
        assert stats.kstest(x, _alpha_cdf(power, a, b)).pvalue > 1e-3

    def test_one_call_takes_both_hats(self):
        # g/M' is 1.26 for the first entry (normal hat), 0.43 and 0.006 for
        # the others (gamma hat); 100,000 of each, interleaved
        cases = [(14.0, 3.0), (1.0, -3.0), (0.05, -10.0)]
        a, b = (np.tile([case[i] for case in cases], 100_000) for i in (0, 1))
        assert list(alpha_mode(6, a[:3], b[:3])[1] >= 6) == [True, False, False]
        x = modified_half_normal_sample(6, a, b, make_rng(4)).reshape(-1, 3)
        for j, (aj, bj) in enumerate(cases):
            assert stats.kstest(x[:, j], _alpha_cdf(6, aj, bj)).pvalue > 1e-3, j

    def test_hats_cover_the_density_and_accept_at_least_0_6(self):
        """Over power 1-20000 and g/power 1e-4-1e4, just below and just above
        g = power too, `alpha_mode` recovers the mode (at 1e-4, 1 and 30),
        the normal hat e^(-g (y-1)^2/2) and the gamma hat (y e^(1-y))^power
        each lie above the density, and the hat the kernel takes (normal
        where g >= power) holds at most 1/0.6 times its mass (all in units
        of the mode, by quadrature). The worst is 0.6065, at power 1 and g
        just below 1."""
        worst = 1.0
        for power in (1, 2, 6, 36, 1000, 20_000):
            for ratio in (*np.geomspace(1e-4, 1e4, 9), 1.0 - 1e-6, 1.0 + 1e-6):
                for mode in (1e-4, 1.0, 30.0):
                    a = ratio * power / (2.0 * mode * mode)
                    b = 2.0 * a * mode - power / mode
                    m, g = alpha_mode(power, np.array([a]), np.array([b]))
                    assert m[0] == pytest.approx(mode, rel=1e-9)
                    assert g[0] == pytest.approx(ratio * power, rel=1e-9)
                g = g[0]
                if ratio != 1.0:  # at ratio 1, g lands on either side by rounding
                    assert (g >= power) == (ratio > 1.0)

                def log_f(y):
                    return power * (np.log(y) - y + 1.0) - 0.5 * g * (y - 1.0) ** 2

                # left of 1 the curvature is at least power + g, right of it
                # the density falls at least as fast as either hat
                lo = max(0.0, 1.0 - 40.0 / np.sqrt(power + g))
                hi = 1.0 + 60.0 / np.sqrt(max(power, g))
                y = np.concatenate([np.linspace(lo, 1.0, 400)[1:], np.linspace(1.0, hi, 400)])
                log_normal = -0.5 * g * (y - 1.0) ** 2
                log_gamma_hat = power * (np.log(y) - y + 1.0)
                for log_hat in (log_normal, log_gamma_hat):
                    assert np.all(log_f(y) <= log_hat + 1e-12 * np.maximum(1.0, -log_hat))

                f_mass = sum(quad(lambda v: np.exp(log_f(v)), *ends, limit=200)[0]
                             for ends in ((lo, 1.0), (1.0, hi)))
                if g >= power:  # N(1, 1/g) on y > 0
                    hat_mass = np.sqrt(2.0 * np.pi / g) * ndtr(np.sqrt(g))
                else:  # y^power e^(-power (y - 1)): e^power Gamma(power + 1) / power^(power + 1)
                    hat_mass = np.exp(power + gammaln(power + 1.0)
                                      - (power + 1.0) * np.log(power))
                worst = min(worst, f_mass / hat_mass)
        assert worst >= 0.6

    def test_pass_cap_names_the_parameters(self):
        # every uniform is 1 - 2^-53: both entries take the normal hat (g/M'
        # 1.26 and 1.17), whose truncated normal then draws about 8 sds out,
        # where the acceptance (y e^(1-y))^6 is far below the uniform
        with pytest.raises(ValueError, match=(
                f"2 draw\\(s\\) still rejected after {MAX_REJECTION_PASSES} passes")) as err:
            modified_half_normal_sample(6, np.array([14.0, 14.0]), np.array([3.0, 2.0]),
                                        StuckGenerator(9))
        assert "modified-half-normal rejection" in str(err.value)
        assert "(M' 6, a 14, b 2 to 3)" in str(err.value)

    def test_zero_uniforms_refuse_the_zero_proposal_without_a_warning(self):
        # every uniform 0.0: at (M' 6, a 14, b 3), a normal-hat entry, each
        # proposal is the truncated normal's lower bound y = 0, where the
        # acceptance 0^6 = 0 refuses even an acceptance uniform of 0.0; no
        # warning may be raised (RuntimeWarnings are errors here)
        with pytest.raises(ValueError, match="1 draw\\(s\\) still rejected"):
            modified_half_normal_sample(6, np.array([14.0]), np.array([3.0]),
                                        StuckGenerator(9, 0.0))

    def test_zero_truncated_normal_uniforms_refuse_the_normal_hat(self, monkeypatch):
        # 0.0 for the truncated normal's uniforms and real ones elsewhere:
        # the normal-hat entries (b 3 and 2) propose y = 0, which is refused,
        # and reach the pass cap, whose error names them alone; the
        # gamma-hat entry (a 1, b -3) draws as usual
        stuck = StuckGenerator(9, 0.0)
        monkeypatch.setattr(dirichlet, "truncated_normal_sample",
                            lambda mean, var, lower, rng: truncated_normal_sample(
                                mean, var, lower, stuck))
        a, b = np.array([14.0, 14.0, 1.0]), np.array([3.0, 2.0, -3.0])
        with pytest.raises(ValueError, match="2 draw\\(s\\) still rejected") as err:
            modified_half_normal_sample(6, a, b, make_rng(9))
        assert "(M' 6, a 14, b 2 to 3)" in str(err.value)
        # alone, the gamma-hat entry makes no truncated-normal call
        got = modified_half_normal_sample(6, a[2:], b[2:], make_rng(9))
        monkeypatch.undo()
        assert np.array_equal(got, modified_half_normal_sample(6, a[2:], b[2:], make_rng(9)))

    def test_snapshot_chains_mix(self):
        """Minimum ESS per kept sweep on the snapshot (3000 sweeps, 500
        burn-in); the slice-variable update reached about 0.08 and 0.01."""
        counts = parse_counts_csv("data/opioid_deaths.csv", id_cols=2)
        prior = AlphaPrior.for_categories(counts.n_categories)
        cfg = ChainConfig(iterations=3000, burn_in=500, thin=1, seed=1)
        for run, floor in ((run_chain, 0.4), (run_chain_homogeneous, 0.2)):
            draws = run(counts, prior, cfg).draws
            ess = min(effective_sample_size(draws[:, j]) for j in range(draws.shape[1]))
            assert ess / cfg.retained >= floor, run.__name__


class TestSweepAndChain:
    def test_sweep_determinism_and_invariants(self):
        counts = CountMatrix.from_array([[3, 0, 4], [1, 2, 2]])
        prior = AlphaPrior.for_categories(3)
        s1 = _toy_state(counts, prior, seed=5)
        s2 = _toy_state(counts, prior, seed=5)
        r1, r2 = make_rng(6), make_rng(6)
        for _ in range(3):
            gibbs_sweep(s1, counts, prior, FAST_PIG, r1)
            gibbs_sweep(s2, counts, prior, FAST_PIG, r2)
            s1.validate()
        assert np.array_equal(s1.alpha, s2.alpha)
        assert np.array_equal(s1.w, s2.w)
        assert np.array_equal(s1.log_p, s2.log_p)
        assert np.array_equal(s1.eta, s2.eta)

    def test_run_chain_deterministic(self):
        counts = CountMatrix.from_array([[3, 1], [2, 5]])
        prior = AlphaPrior.for_categories(2)
        cfg = ChainConfig(iterations=300, burn_in=100, thin=2, seed=21,
                          pig_config=PigSamplerConfig(trunc_terms=50))
        s1 = run_chain(counts, prior, cfg)
        s2 = run_chain(counts, prior, cfg)
        assert np.array_equal(s1.draws, s2.draws)
        assert s1.size == cfg.retained == 100
        assert np.array_equal(s1.iters, s2.iters)

    def test_homogeneous_chain_deterministic(self):
        counts = CountMatrix.from_array([[3, 1], [2, 5]])
        prior = AlphaPrior(tau=0.8)
        cfg = ChainConfig(iterations=300, burn_in=100, thin=2, seed=22,
                          pig_config=PigSamplerConfig(trunc_terms=50))
        s1 = run_chain_homogeneous(counts, prior, cfg)
        s2 = run_chain_homogeneous(counts, prior, cfg)
        assert np.array_equal(s1.draws, s2.draws)
        assert s1.names == ["alpha"]

    def test_refuses_empty_counts(self):
        empty = CountMatrix.from_array(np.zeros((0, 2), dtype=np.int64))
        with pytest.raises(ValueError):
            run_chain(empty, AlphaPrior(tau=1.0), ChainConfig(
                iterations=10, burn_in=1, thin=1))
        with pytest.raises(ValueError):
            run_chain_homogeneous(empty, AlphaPrior(tau=1.0), ChainConfig(
                iterations=10, burn_in=1, thin=1))

    def test_exchangeable_posterior_on_symmetric_data(self):
        counts = CountMatrix.from_array([[6, 6, 6], [4, 4, 4], [9, 9, 9]])
        prior = AlphaPrior.for_categories(3)
        cfg = ChainConfig(iterations=9000, burn_in=1000, thin=8, seed=31,
                          pig_config=FAST_PIG)
        samples = run_chain(counts, prior, cfg)
        means = samples.draws.mean(axis=0)
        mcses = [chain_mcse(samples.draws[:, j]) for j in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                tol = 3.0 * float(np.hypot(mcses[i], mcses[j]))
                assert abs(means[i] - means[j]) <= tol

    def test_label_equivariance_under_permutation(self):
        counts = CountMatrix.from_array([[9, 2, 5], [1, 7, 3], [6, 6, 1]])
        prior = AlphaPrior.for_categories(3)
        cfg = ChainConfig(iterations=9000, burn_in=1000, thin=8, seed=17,
                          pig_config=FAST_PIG)
        order = [2, 0, 1]
        base = run_chain(counts, prior, cfg)
        perm = run_chain(_permuted_categories(counts, order), prior, cfg)
        for new_pos, old_pos in enumerate(order):
            a = base.draws[:, old_pos]
            b = perm.draws[:, new_pos]
            tol = 3.0 * float(np.hypot(chain_mcse(a), chain_mcse(b)))
            assert abs(a.mean() - b.mean()) <= tol


class TestAgainstQuadrature:
    def test_full_chain_matches_2d_oracle(self):
        counts = CountMatrix.from_array([[8, 3], [5, 6], [11, 2], [4, 9], [7, 5]])
        prior = AlphaPrior.for_categories(2)
        grid = np.geomspace(5e-5, 12.0, 1600)
        dens = quadrature_posterior_k2(counts, prior, grid)
        mean_1 = np.trapezoid(np.trapezoid(dens * grid[:, None], grid, axis=1), grid)
        mean_2 = np.trapezoid(grid * np.trapezoid(dens, grid, axis=0), grid)
        cfg = ChainConfig(iterations=16000, burn_in=1000, thin=15, seed=3,
                          pig_config=FAST_PIG)
        samples = run_chain(counts, prior, cfg)
        for j, truth in enumerate((mean_1, mean_2)):
            err = abs(samples.draws[:, j].mean() - truth)
            assert err <= 3.0 * chain_mcse(samples.draws[:, j])

    def test_homogeneous_m1_example(self):
        counts = CountMatrix.from_array([[3, 3]])
        prior = AlphaPrior(tau=1.0)
        grid = homogeneous_posterior_grid(counts, prior)
        dens = quadrature_posterior(counts, prior, grid)
        truth, _ = grid_mean_sd(grid, dens)
        cfg = ChainConfig(iterations=11000, burn_in=1000, thin=10, seed=2,
                          pig_config=FAST_PIG)
        samples = run_chain_homogeneous(counts, prior, cfg)
        draws = samples.draws[:, 0]
        assert abs(draws.mean() - truth) <= 3.0 * chain_mcse(draws)

    def test_homogeneous_handles_zero_counts_exactly(self):
        counts = CountMatrix.from_array([[4, 0], [0, 5], [3, 2]])
        prior = AlphaPrior(tau=1.0)
        grid = homogeneous_posterior_grid(counts, prior)
        dens = quadrature_posterior(counts, prior, grid)
        truth, _ = grid_mean_sd(grid, dens)
        cfg = ChainConfig(iterations=16000, burn_in=1000, thin=15, seed=4,
                          pig_config=FAST_PIG)
        samples = run_chain_homogeneous(counts, prior, cfg)
        draws = samples.draws[:, 0]
        assert abs(draws.mean() - truth) <= 3.0 * chain_mcse(draws)

    def test_cross_sampler_consistency_through_oracles(self):
        # The shared-alpha and per-category models are different models, so
        # their posteriors need not coincide; consistency means each sampler
        # reproduces its own exact posterior, and the sampler gap matches
        # the quadrature gap.
        counts = CountMatrix.from_array([[8, 8]] * 6)
        prior = AlphaPrior(tau=1.0)

        grid = homogeneous_posterior_grid(counts, prior)
        homog_truth, _ = grid_mean_sd(grid, quadrature_posterior(
            counts, prior, grid))
        grid2 = np.geomspace(2e-4, 25.0, 1800)
        dens2 = quadrature_posterior_k2(counts, prior, grid2)
        full_truth = np.trapezoid(np.trapezoid(
            dens2 * grid2[:, None], grid2, axis=1), grid2)

        cfg = ChainConfig(iterations=13000, burn_in=1000, thin=12, seed=5,
                          pig_config=FAST_PIG)
        homog = run_chain_homogeneous(counts, prior, cfg).draws[:, 0]
        full = run_chain(counts, prior, cfg)
        full_avg = full.draws.mean(axis=1)

        assert abs(homog.mean() - homog_truth) <= 3.0 * chain_mcse(homog)
        assert abs(full_avg.mean() - full_truth) <= 3.0 * chain_mcse(full_avg)
        gap = homog.mean() - full_avg.mean()
        truth_gap = homog_truth - full_truth
        tol = 3.0 * float(np.hypot(chain_mcse(homog), chain_mcse(full_avg)))
        assert abs(gap - truth_gap) <= tol


class TestQuadrature:
    def test_normalization(self):
        counts = CountMatrix.from_array([[5, 1], [2, 2]])
        prior = AlphaPrior(tau=1.0)
        grid = homogeneous_posterior_grid(counts, prior)
        dens = quadrature_posterior(counts, prior, grid)
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-8)

    def test_flat_likelihood_returns_prior(self):
        empty = CountMatrix.from_array(np.zeros((0, 2), dtype=np.int64))
        prior = AlphaPrior(tau=0.8)
        grid = homogeneous_posterior_grid(empty, prior)
        dens = quadrature_posterior(empty, prior, grid)
        mean, _ = grid_mean_sd(grid, dens)
        assert mean == pytest.approx(np.sqrt(2 / np.pi) * 0.8, rel=1e-4)

    def test_mode_matches_golden_section(self):
        counts = CountMatrix.from_array([[3, 3]])
        prior = AlphaPrior(tau=1.0)
        grid = homogeneous_posterior_grid(counts, prior)
        dens = quadrature_posterior(counts, prior, grid)
        i = int(np.argmax(dens))

        def neg_log_post(a):
            return -(_marginal_log_likelihood([3, 3], np.array([a, a]))
                     - 0.5 * a * a)

        res = minimize_scalar(neg_log_post, bracket=(0.2, 1.0, 5.0),
                              method="golden")
        step = grid[min(i + 1, grid.size - 1)] - grid[max(i - 1, 0)]
        assert abs(grid[i] - res.x) <= step

    def test_coarse_grid_refused(self):
        counts = CountMatrix.from_array([[40, 2], [3, 50]])
        prior = AlphaPrior(tau=1.0)
        with pytest.raises(ValueError, match="too coarse"):
            quadrature_posterior(counts, prior, np.linspace(0.01, 30.0, 30))

    def test_heavy_endpoint_refused(self):
        counts = CountMatrix.from_array([[3, 3]])
        prior = AlphaPrior(tau=1.0)
        with pytest.raises(ValueError, match="endpoint"):
            quadrature_posterior(counts, prior, np.geomspace(0.01, 1.2, 4000))

    def test_grid_validation(self):
        counts = CountMatrix.from_array([[3, 3]])
        prior = AlphaPrior(tau=1.0)
        with pytest.raises(ValueError):
            quadrature_posterior(counts, prior, np.array([-1.0, 0.5, 1.0]))
        with pytest.raises(ValueError):
            quadrature_posterior(counts, prior, np.array([0.5, 0.5, 1.0]))

    def test_cdf_monotone(self):
        counts = CountMatrix.from_array([[3, 3]])
        prior = AlphaPrior(tau=1.0)
        grid = homogeneous_posterior_grid(counts, prior)
        cdf = grid_cdf(grid, quadrature_posterior(counts, prior, grid))
        assert cdf[0] == 0.0 and cdf[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(cdf) >= 0.0)


class TestPosteriorGrid:
    @pytest.mark.parametrize("mu, s2", [(np.log(1e-7), 0.01), (np.log(1e7), 0.01),
                                        (0.0, 1e-10)])
    def test_mass_far_from_the_probe_or_narrower_than_its_spacing(self, mu, s2):
        # log-normal in log alpha: far below or above [1e-3, 1e3], or 1e-5
        # wide where the first probe's spacing is 0.035. The mean of
        # exp(-(log x - mu)^2 / (2 s2)) dx is exp(mu + 1.5 s2).
        def log_post(x):
            return -0.5 * (np.log(x) - mu) ** 2 / s2

        grid = posterior_grid(log_post)
        assert grid.size == _GRID_POINTS
        assert grid[0] < np.exp(mu) < grid[-1]
        mean, _ = grid_mean_sd(grid, normalize_on_grid(grid, log_post(grid)))
        assert mean == pytest.approx(np.exp(mu + 1.5 * s2), rel=1e-9)

    def test_flat_density_stops_at_the_left_floor(self):
        def log_post(x):
            return -x

        grid = posterior_grid(log_post)
        assert grid[0] == _GRID_FLOOR
        mean, sd = grid_mean_sd(grid, normalize_on_grid(grid, log_post(grid)))
        assert mean == pytest.approx(1.0, rel=1e-8)
        assert sd == pytest.approx(1.0, rel=1e-8)

    def test_refuses_a_grid_still_too_coarse_after_the_doublings(self):
        with pytest.raises(ValueError, match=r"jump .* 1280001 points on \["):
            posterior_grid(lambda x: 5.0 * np.log(x) - 3e5 * np.log(np.maximum(x, 1.0)))

    def test_refuses_a_density_that_does_not_fall_off(self):
        with pytest.raises(ValueError, match="no bracket"):
            posterior_grid(lambda x: np.log(x))


class TestHomogeneousOracle:
    @pytest.mark.parametrize("m", [1, 6, 1000])
    def test_distinct_count_sums_match_the_per_unit_sum(self, m):
        counts = _forty_count_units(m, seed=m)
        grid = np.geomspace(1e-6, 50.0, 60)
        np.testing.assert_allclose(_homogeneous_log_post(counts, 0.7, grid),
                                   _per_unit_log_post(counts, 0.7, grid),
                                   rtol=1e-12)

    @pytest.mark.parametrize("m", [400, 1000, 5000])
    def test_large_m_matches_adaptive_quadrature(self, m):
        counts = _forty_count_units(m, seed=m)
        prior = AlphaPrior.for_categories(6)
        grid = homogeneous_posterior_grid(counts, prior)
        mean, _ = grid_mean_sd(grid, quadrature_posterior(counts, prior, grid))
        truth = quad_mean(
            lambda x: _homogeneous_log_post(counts, prior.tau, x), grid)
        assert mean == pytest.approx(truth, rel=1e-9)

    def test_snapshot_matches_adaptive_quadrature(self):
        counts = parse_counts_csv("data/opioid_deaths.csv", id_cols=2)
        prior = AlphaPrior.for_categories(counts.n_categories)
        grid = homogeneous_posterior_grid(counts, prior)
        mean, _ = grid_mean_sd(grid, quadrature_posterior(counts, prior, grid))
        truth = quad_mean(
            lambda x: _homogeneous_log_post(counts, prior.tau, x), grid)
        assert mean == pytest.approx(truth, rel=1e-9)

    @pytest.mark.parametrize("rows", [[[8, 8]] * 6,
                                      [[8, 3], [5, 6], [11, 2], [4, 9], [0, 5]]])
    def test_k2_distinct_count_sums_match_the_per_unit_loop(self, rows):
        counts = CountMatrix.from_array(rows)
        prior = AlphaPrior(tau=1.0)
        grid = np.geomspace(2e-4, 25.0, 300)
        a1, a2 = grid[:, None], grid[None, :]
        log_f = -0.5 * a1**2 - 0.5 * a2**2
        for n1, n2 in counts.counts:
            log_f = log_f + (log_gamma(a1 + a2) - log_gamma(a1 + a2 + n1 + n2)
                             + log_gamma(n1 + a1) - log_gamma(a1)
                             + log_gamma(n2 + a2) - log_gamma(a2))
        f = np.exp(log_f - log_f.max())
        f /= np.trapezoid(np.trapezoid(f, grid, axis=1), grid)
        np.testing.assert_allclose(quadrature_posterior_k2(counts, prior, grid), f,
                                   rtol=1e-12)


class TestPosteriorPredictive:
    def _samples(self, draws):
        draws = np.asarray(draws, dtype=float)
        return PosteriorSamples(draws, [f"alpha_{j+1}" for j in
                                        range(draws.shape[1])],
                                np.arange(1, draws.shape[0] + 1), meta={})

    def test_rows_are_simplex(self):
        samples = self._samples(make_rng(1).uniform(0.2, 3.0, size=(50, 4)))
        sims = posterior_predictive(samples, 3, make_rng(2))
        assert sims.shape == (150, 4)
        assert np.max(np.abs(sims.sum(axis=1) - 1.0)) <= 1e-10

    def test_unit_concentration_gives_uniform_means(self):
        samples = self._samples(np.ones((400, 3)))
        sims = posterior_predictive(samples, 50, make_rng(3))
        se = sims[:, 0].std(ddof=1) / np.sqrt(sims.shape[0])
        assert abs(sims[:, 0].mean() - 1 / 3) <= 4 * se

    def test_rows_follow_sample_order(self):
        alphas = np.array([[1.0, 1.0, 1.0], [6.0, 1.0, 1.0], [1.0, 2.0, 9.0]])
        sims = posterior_predictive(self._samples(alphas), 4000, make_rng(5))
        assert sims.shape == (12_000, 3)
        for s, alpha in enumerate(alphas):
            block = sims[4000 * s:4000 * (s + 1)]
            se = block.std(axis=0, ddof=1) / np.sqrt(block.shape[0])
            assert np.all(np.abs(block.mean(axis=0) - alpha / alpha.sum()) <= 4 * se)

    def test_count_contract(self):
        samples = self._samples(np.ones((7, 2)) * 1.5)
        assert posterior_predictive(samples, 9, make_rng(4)).shape == (63, 2)

    def test_refuses_empty(self):
        with pytest.raises(ValueError):
            posterior_predictive(self._samples(np.ones((1, 2))), 0, make_rng(0))


class TestStateValidation:
    def test_bad_state_raises(self):
        state = DirichletChainState(
            alpha=np.array([1.0, -0.5]),
            log_p=np.log(np.array([[0.5, 0.5]])),
            w=np.array([[1.0, 1.0]]),
            eta=np.array([1.0]))
        with pytest.raises(ValueError):
            state.validate()

    def test_simplex_violation_detected(self):
        state = DirichletChainState(
            alpha=np.array([1.0, 0.5]),
            log_p=np.log(np.array([[0.6, 0.6]])),
            w=np.array([[1.0, 1.0]]),
            eta=np.array([1.0]))
        with pytest.raises(ValueError):
            state.validate()
