import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from bessel_oracle import log_bessel_k
from polyaig.pig import PigParams, PigSamplerConfig, pig_sample_with_tilts
from polyaig.rng import (_OMEGA_SPLIT, MAX_REJECTION_PASSES, child_rng,
                         dirichlet_log_sample, gig_rvs, make_rng,
                         truncated_normal_sample)


def mcse(x):
    return x.std(ddof=1) / np.sqrt(x.size)


class TestStreams:
    def test_same_seed_same_sequence(self):
        a = make_rng(42).standard_normal(32)
        b = make_rng(42).standard_normal(32)
        assert np.array_equal(a, b)

    def test_children_are_distinct_and_reproducible(self):
        a = child_rng(7, 0).standard_normal(8)
        b = child_rng(7, 1).standard_normal(8)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, child_rng(7, 0).standard_normal(8))


class TestDirichletLogSample:
    def test_symmetric_means(self):
        draws = np.exp(dirichlet_log_sample(np.ones((10**5, 3)), make_rng(3)))
        for j in range(3):
            assert abs(draws[:, j].mean() - 1/3) <= 4 * mcse(draws[:, j])

    def test_component_mean(self):
        draws = np.exp(dirichlet_log_sample(np.tile([2.0, 6.0], (10**5, 1)),
                                            make_rng(4)))[:, 0]
        assert abs(draws.mean() - 0.25) <= 4 * mcse(draws)

    def test_log_scale_stays_finite_for_tiny_concentration(self):
        rng = make_rng(5)
        for _ in range(2000):
            log_p = dirichlet_log_sample([1e-4, 1.0], rng)
            assert np.all(np.isfinite(log_p))
            assert np.exp(log_p[0]) >= 0.0  # linear scale may underflow, log must not

    def test_simplex_sum(self):
        rng = make_rng(6)
        for conc in ([0.2, 0.7], [3.0, 1.0, 0.5, 2.0]):
            log_p = dirichlet_log_sample(conc, rng)
            assert abs(np.exp(log_p).sum() - 1.0) <= 1e-12

    def test_matrix_draws_one_simplex_per_row(self):
        conc = np.array([[0.2, 0.7, 1.0], [3.0, 1.0, 0.5], [1e-4, 1.0, 2.0],
                         [40.0, 0.1, 7.0]])
        log_p = dirichlet_log_sample(conc, make_rng(21))
        assert log_p.shape == conc.shape
        assert np.max(np.abs(np.exp(log_p).sum(axis=1) - 1.0)) <= 1e-12
        assert np.all(np.isfinite(log_p))  # also the 1e-4 row

    def test_domain(self):
        with pytest.raises(ValueError):
            dirichlet_log_sample([1.0, 0.0], make_rng(0))
        with pytest.raises(ValueError):
            dirichlet_log_sample([], make_rng(0))

    @pytest.mark.parametrize("conc", [np.ones((2, 2, 3)), np.ones((0, 3)),
                                      np.ones((3, 0)), [[1.0, 2.0], [0.0, 1.0]],
                                      [[1.0, np.inf], [1.0, 1.0]],
                                      [[1.0, np.nan], [1.0, 1.0]],
                                      [[1.0, 1.0], [-np.inf, 1.0]],
                                      [[1.0, 2.0], [1.0, -0.5]]])
    def test_matrix_domain(self, conc):
        with pytest.raises(ValueError):
            dirichlet_log_sample(conc, make_rng(0))

    def test_exact_zero_uniform(self):
        # a uniform of exactly 0.0 gives its component p = 0, without a warning
        class OneZero(StuckGenerator):
            def random(self, size=None):
                u = self._rng.random(size)
                u.flat[1] = 0.0
                return u

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log_p = dirichlet_log_sample(np.ones((2, 3)), OneZero(3))
            p = np.exp(log_p)
        assert log_p[0, 1] == -np.inf and p[0, 1] == 0.0
        assert np.isfinite(np.delete(log_p, 1)).all()
        assert np.allclose(p.sum(axis=1), 1.0)


class TestTruncatedNormal:
    def test_half_normal_mean(self):
        x = truncated_normal_sample(0.0, 1.0, np.zeros(10**6), make_rng(7))
        assert abs(x.mean() - np.sqrt(2 / np.pi)) <= 4 * mcse(x)

    def test_negligible_truncation(self):
        x = truncated_normal_sample(5.0, 0.01, np.zeros(10**5), make_rng(8))
        assert abs(x.mean() - 5.0) <= 4 * mcse(x)

    def test_deep_tail_support_and_no_hang(self):
        x = truncated_normal_sample(-10.0, 1.0, np.zeros(10**4), make_rng(9))
        assert np.all(x > 0.0)

    def test_deep_tail_mean(self):
        # E[Z | Z > a] = phi(a) / (1 - Phi(a)) for the standard normal
        a = 5.0
        x = truncated_normal_sample(0.0, 1.0, np.full(10**5, a), make_rng(10))
        truth = stats.norm.pdf(a) / stats.norm.sf(a)
        assert np.all(x > a)
        assert abs(x.mean() - truth) <= 4 * mcse(x)

    # standardized cutoffs from below the mean to far past 37.5, where
    # ndtr(-a) underflows to 0 and only the log scale keeps the tail mass
    @pytest.mark.parametrize("a", (-5.0, 0.0, 3.0, 4.5, 8.0, 40.0, 200.0))
    def test_ks_against_reference(self, a):
        mean, sd = 1.0, 2.0
        x = truncated_normal_sample(mean, sd * sd, np.full(4 * 10**4, mean + sd * a),
                                    make_rng(11))
        res = stats.kstest(x, lambda v: stats.truncnorm.cdf(
            v, a, np.inf, loc=mean, scale=sd))
        assert res.pvalue > 1e-3

    def test_array_parameters_broadcast_across_both_branches(self):
        # mild cutoffs -1 and 0.5 and tail cutoffs 5 and 6 in one call
        cut = np.array([-1.0, 0.5, 5.0, 6.0])
        mean = np.array([[0.0], [2.0]])
        x = truncated_normal_sample(mean, 1.0, cut + mean, make_rng(22))
        assert x.shape == (2, 4) and np.all(x > cut + mean)
        many = truncated_normal_sample(0.0, np.full((25_000, 1), 1.0), cut,
                                       make_rng(23))
        assert many.shape == (25_000, 4) and np.all(many > cut)
        truth = stats.norm.pdf(cut) / stats.norm.sf(cut)
        for j in range(4):
            assert abs(many[:, j].mean() - truth[j]) <= 4 * mcse(many[:, j])

    @pytest.mark.parametrize("cut", (
        [[-1.0, 0.5, 3.9], [2.0, -3.0, 3.5]],   # mild
        [[4.5, 6.0, 9.0], [5.0, 12.0, 4.1]],    # tail
        [[-1.0, 6.0, 0.5], [5.0, 2.0, 9.0]],    # mixed
    ))
    def test_array_path_matches_masked_draw(self, cut):
        """The array path draws what drawing its entries one at a time, in
        index order, draws, and leaves the generator at the same state."""
        mean = np.array([[0.5], [-1.0]])
        variance = np.full((2, 3), 2.0)
        lower = mean + np.sqrt(2.0) * np.array(cut)
        rng_a, rng_b = make_rng(25), make_rng(25)
        drawn = truncated_normal_sample(mean, variance, lower, rng_a)
        m, v, lo = (np.broadcast_to(x, lower.shape).ravel()
                    for x in (mean, variance, lower))
        one_at_a_time = [truncated_normal_sample(m[k:k + 1], v[k:k + 1], lo[k:k + 1],
                                                 rng_b) for k in range(lo.size)]
        assert np.array_equal(drawn.ravel(), np.concatenate(one_at_a_time))
        assert rng_a.random() == rng_b.random()

    def test_end_uniforms_give_finite_draws_one_uniform_each(self):
        # 0.0 and 1 - 2^-53, the ends of `Generator.random`, at cutoffs from
        # 5 standard deviations below the mean to 1e4 above it
        a = np.concatenate((np.linspace(-5.0, 50.0, 1101), np.geomspace(50.0, 1e4, 200)))
        mean, sd = np.full(a.size, 0.5), np.sqrt(2.0)
        lower = mean + sd * a
        for value in (0.0, np.nextafter(1.0, 0.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                x = truncated_normal_sample(mean, sd * sd, lower, StuckGenerator(30, value))
            assert np.isfinite(x).all() and np.all(x >= lower)
        rng_a, rng_b = make_rng(30), make_rng(30)
        truncated_normal_sample(mean, sd * sd, lower, rng_a)
        rng_b.random(a.size)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_domain(self):
        with pytest.raises(ValueError):
            truncated_normal_sample(np.zeros(1), 0.0, 0.0, make_rng(0))
        with pytest.raises(ValueError):
            truncated_normal_sample(np.zeros(1), -1.0, 0.0, make_rng(0))
        with pytest.raises(ValueError):
            truncated_normal_sample(0.0, np.array([1.0, np.nan]), 0.0, make_rng(0))

    @pytest.mark.parametrize("params", ((0.0, 1.0, 0.5), (-3.0, 2.0, 6.0),
                                        (np.float64(1.0), 2.0, np.array(0.5))))
    def test_scalar_parameters_refused(self, params):
        # no array among them, so no shape to draw: refused before any draw
        rng = make_rng(26)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="must be an array"):
            truncated_normal_sample(*params, rng)
        assert rng.bit_generator.state == state


def gig_draws(chi, tilt, seed, n):
    return gig_rvs(np.full(n, chi), np.full(n, tilt), make_rng(seed))


def bessel_ratio_mean(order, chi, tilt):
    """GIG(order, chi, tilt) mean (chi/tilt) K_{order+1}(omega)/K_order(omega)."""
    omega = chi * tilt
    return (chi / tilt) * np.exp(
        log_bessel_k(order + 1.0, omega) - log_bessel_k(order, omega))


class TestGigSample:
    """`gig_rvs` draws GIG(-3/2, chi, tilt), mean chi^2/(1 + chi*tilt)."""

    @pytest.mark.parametrize("omega", (1e-3, 0.1, 1.0, 2.0, 7.5, 100.0))
    def test_closed_mean_matches_bessel_ratio(self, omega):
        chi = 0.7
        closed = chi * chi / (1.0 + omega)
        assert closed == pytest.approx(bessel_ratio_mean(-1.5, chi, omega / chi),
                                       rel=1e-12)

    def test_reciprocal_gamma_mean_by_median_of_means(self):
        # per-draw variance is infinite (shape 3/2): median over 100 blocks
        draws = gig_draws(1.0, 0.0, 12, 10**6)
        blocks = draws.reshape(100, 10**4).mean(axis=1)
        assert abs(np.median(blocks) - 1.0) <= 0.10

    def test_tilted_mean(self):
        draws = gig_draws(1.0, 1.0, 13, 10**6)
        assert abs(draws.mean() - 0.5) <= 4 * mcse(draws)

    @pytest.mark.parametrize("order,chi,tilt", [
        (-1.5, 1.0, 1.0),
        (-1.5, 0.5, 2.0),
        (-1.5, 2.0, 1.5),
        (-1.5, 0.5, 10.0),
    ])
    def test_mean_law_against_bessel_ratio(self, order, chi, tilt):
        draws = gig_draws(chi, tilt, 15, 10**6)
        truth = bessel_ratio_mean(order, chi, tilt)
        assert abs(draws.mean() - truth) <= 4 * mcse(draws)

    def test_zero_tilt_matches_inverted_gamma_ks(self):
        delta = 1.3
        draws = gig_draws(delta, 0.0, 16, 10**5)
        ref = (delta**2 / 2.0) / make_rng(17).standard_gamma(1.5, size=10**5)
        stat = stats.ks_2samp(draws, ref).statistic
        assert stat <= 0.01

    @pytest.mark.parametrize("order,chi,tilt", [
        (-1.5, 1.0, 1.0),     # tilt rejection
        (-1.5, 1.0, 4.0),     # inverse Gaussian plus gamma, no rejection
        (-1.5, 0.02, 300.0),  # large tilt, small chi
        (-1.5, 2.0, 60.0),    # omega = 120
        pytest.param(-1.5, 1.0, _OMEGA_SPLIT * 1.005, id="just-above-the-split"),
        pytest.param(-1.5, 1.0, _OMEGA_SPLIT * 0.995, id="just-below-the-split"),
        # omega midway between the split and 2
        pytest.param(-1.5, 0.5, (_OMEGA_SPLIT + 2.0) / 2.0 / 0.5, id="split-to-2"),
        (-1.5, 0.5, 38.0),    # omega = 19, the largest of a Gamma(20, 5) fit
    ])
    def test_ks_against_scipy_reference_density(self, order, chi, tilt):
        draws = gig_draws(chi, tilt, 18, 3 * 10**4)
        res = stats.kstest(draws, lambda x: stats.geninvgauss.cdf(
            x, p=order, b=chi * tilt, scale=chi / tilt))
        assert res.pvalue > 1e-3

    def test_support_and_determinism(self):
        a = gig_draws(0.7, 2.2, 19, 500)
        b = gig_draws(0.7, 2.2, 19, 500)
        assert np.all(a > 0.0)
        assert np.array_equal(a, b)

    def test_gig_rvs_broadcasts(self):
        rng = make_rng(20)
        chi = np.linspace(0.1, 1.0, 12).reshape(3, 4)
        out = gig_rvs(chi, np.full((3, 4), 1.0), rng)
        assert out.shape == (3, 4)
        assert np.all(out > 0)


class StuckGenerator:
    """A generator whose `random` always returns `value` (1 - 2^-53, the
    largest it can return: no rejection step accepts short of a perfect
    proposal); every other method is the real generator's."""

    def __init__(self, seed, value=np.nextafter(1.0, 0.0)):
        self._rng = make_rng(seed)
        self._value = value

    def random(self, size=None):
        return self._value if size is None else np.full(size, self._value)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class TestRejectionPassCap:
    """Every rejection loop stops after MAX_REJECTION_PASSES passes and names
    the parameters and the number of draws still pending. The truncated normal
    has no loop: where its old redraw and tail rejection stalled, a stuck
    generator now gives every draw at once, scipy's `truncnorm.ppf` at the
    stuck uniform."""

    @staticmethod
    def passes_message(n):
        return f"{n} draw\\(s\\) still rejected after {MAX_REJECTION_PASSES} passes"

    def test_truncated_normal_inverse_cdf(self):
        # a uniform of exactly 0.0 is no longer redrawn: it draws the cutoff,
        # up to rounding on the side of the support
        x = truncated_normal_sample(0.0, 1.0, np.full(3, 0.5), StuckGenerator(4, 0.0))
        assert np.all(x >= 0.5) and np.allclose(x, 0.5, rtol=1e-11, atol=0.0)

    def test_truncated_normal_tail(self):
        x = truncated_normal_sample(0.0, 1.0, np.full(4, 6.0), StuckGenerator(5))
        truth = stats.truncnorm.ppf(np.nextafter(1.0, 0.0), 6.0, np.inf)
        assert np.all(x > 6.0) and np.allclose(x, truth, rtol=1e-11, atol=0.0)

    def test_truncated_normal_tail_array(self):
        # the mild entry and both tail entries are drawn in the one pass
        cut = np.array([6.0, 0.0, 7.0])
        x = truncated_normal_sample(0.0, 1.0, cut, StuckGenerator(7))
        truth = stats.truncnorm.ppf(np.nextafter(1.0, 0.0), cut, np.inf)
        assert np.all(x > cut) and np.allclose(x, truth, rtol=1e-11, atol=0.0)

    def test_tilt_rejection(self):
        with pytest.raises(ValueError, match=self.passes_message(3)) as err:
            gig_rvs(np.array([0.5, 0.3, 0.2]), 1.0, StuckGenerator(1))
        assert "GIG tilt rejection" in str(err.value)
        assert "order -1.5, chi 0.2 to 0.5, tilt 1)" in str(err.value)

    @pytest.mark.parametrize("tilts", ([1.4] * 3, [1.4, 0.0, 2.8]))
    def test_pig_ladder_kernel(self, tilts):
        # single copies: each term within the split (all four of tilt 1.4,
        # omega 0.99 to 0.25) is one group of one copy; an untilted row is
        # accepted at once, and term 1 of tilt 2.8 (omega 1.98), above the
        # split, waits for the rejection
        pending = 4 * tilts.count(1.4) + 3 * tilts.count(2.8)
        with pytest.raises(ValueError, match=self.passes_message(pending)) as err:
            pig_sample_with_tilts(PigParams(), tilts,
                                  PigSamplerConfig(trunc_terms=4), StuckGenerator(6))
        assert "P-IG grouped tilt rejection" in str(err.value)
        assert "(group 1, chi 0.176777 to 0.707107, tilt 1.4" in str(err.value)

    def test_pig_grouped_sums(self):
        # 33 copies at tilt 1.4: terms 1-3 (omega 0.99, 0.49, 0.33, all
        # within the split) take 16 groups of 2, 8 of 4 and 4 of 8, each
        # plus one single draw; one row, so the tilt factor is 0-d
        with pytest.raises(ValueError, match=self.passes_message(31)) as err:
            pig_sample_with_tilts(PigParams(), [1.4],
                                  PigSamplerConfig(trunc_terms=3), StuckGenerator(8),
                                  copies=33)
        assert "P-IG grouped tilt rejection" in str(err.value)
        assert "(group 1 to 8, chi 0.235702 to 0.707107, tilt 1.4)" in str(err.value)


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.floats(min_value=0.05, max_value=20.0),
       st.floats(min_value=0.05, max_value=20.0))
def test_gig_determinism_property(seed, chi, tilt):
    assert gig_rvs(chi, tilt, make_rng(seed)) == gig_rvs(chi, tilt, make_rng(seed))


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_truncnorm_within_support_property(seed):
    x = truncated_normal_sample(-3.0, 2.0, np.full(16, -1.0), make_rng(seed))
    assert np.all(x > -1.0)
