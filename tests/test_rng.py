import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from polyaig.pig import PigParams, PigSamplerConfig, pig_sample_with_tilts
from polyaig.rng import (MAX_REJECTION_PASSES, GigParams, child_rng,
                         dirichlet_log_sample, gamma_sample, gig_rvs,
                         gig_sample, make_rng, truncated_normal_sample)
from polyaig.special import log_bessel_k


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


class TestGammaSample:
    def test_mean_shape5(self):
        x = gamma_sample(5.0, 1.0, make_rng(1), size=10**6)
        assert abs(x.mean() - 5.0) <= 4 * mcse(x)

    def test_mean_small_shape(self):
        x = gamma_sample(0.3, 2.0, make_rng(2), size=10**6)
        assert abs(x.mean() - 0.15) <= 4 * mcse(x)

    def test_fixed_seed_first_draw(self):
        assert gamma_sample(2.0, 3.0, make_rng(42)) == gamma_sample(
            2.0, 3.0, make_rng(42))

    @pytest.mark.parametrize("shape,rate", [(0.0, 1.0), (-1.0, 1.0),
                                            (1.0, 0.0), (np.inf, 1.0)])
    def test_domain(self, shape, rate):
        with pytest.raises(ValueError):
            gamma_sample(shape, rate, make_rng(0))


class TestDirichletLogSample:
    def test_symmetric_means(self):
        rng = make_rng(3)
        draws = np.array([dirichlet_log_sample([1.0, 1.0, 1.0], rng)[0]
                          for _ in range(10**5)])
        for j in range(3):
            assert abs(draws[:, j].mean() - 1/3) <= 4 * mcse(draws[:, j])

    def test_component_mean(self):
        rng = make_rng(4)
        draws = np.array([dirichlet_log_sample([2.0, 6.0], rng)[0][0]
                          for _ in range(10**5)])
        assert abs(draws.mean() - 0.25) <= 4 * mcse(draws)

    def test_log_scale_stays_finite_for_tiny_concentration(self):
        rng = make_rng(5)
        for _ in range(2000):
            p, log_p = dirichlet_log_sample([1e-4, 1.0], rng)
            assert np.all(np.isfinite(log_p))
            assert p[0] >= 0.0  # linear scale may underflow, log must not

    def test_simplex_sum(self):
        rng = make_rng(6)
        for conc in ([0.2, 0.7], [3.0, 1.0, 0.5, 2.0]):
            p, log_p = dirichlet_log_sample(conc, rng)
            assert abs(p.sum() - 1.0) <= 1e-12
            assert abs(np.exp(log_p).sum() - 1.0) <= 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            dirichlet_log_sample([1.0, 0.0], make_rng(0))
        with pytest.raises(ValueError):
            dirichlet_log_sample([], make_rng(0))


class TestTruncatedNormal:
    def test_half_normal_mean(self):
        x = truncated_normal_sample(0.0, 1.0, 0.0, make_rng(7), size=10**6)
        assert abs(x.mean() - np.sqrt(2 / np.pi)) <= 4 * mcse(x)

    def test_negligible_truncation(self):
        x = truncated_normal_sample(5.0, 0.01, 0.0, make_rng(8), size=10**5)
        assert abs(x.mean() - 5.0) <= 4 * mcse(x)

    def test_deep_tail_support_and_no_hang(self):
        x = truncated_normal_sample(-10.0, 1.0, 0.0, make_rng(9), size=10**4)
        assert np.all(x > 0.0)

    def test_deep_tail_mean(self):
        # E[Z | Z > a] = phi(a) / (1 - Phi(a)) for the standard normal
        a = 5.0
        x = truncated_normal_sample(0.0, 1.0, a, make_rng(10), size=10**5)
        truth = stats.norm.pdf(a) / stats.norm.sf(a)
        assert np.all(x > a)
        assert abs(x.mean() - truth) <= 4 * mcse(x)

    def test_ks_against_reference(self):
        mean, var, lower = 1.0, 4.0, 2.0
        x = truncated_normal_sample(mean, var, lower, make_rng(11), size=4 * 10**4)
        a = (lower - mean) / np.sqrt(var)
        res = stats.kstest(x, lambda v: stats.truncnorm.cdf(
            v, a, np.inf, loc=mean, scale=np.sqrt(var)))
        assert res.pvalue > 1e-3

    def test_domain(self):
        with pytest.raises(ValueError):
            truncated_normal_sample(0.0, 0.0, 0.0, make_rng(0))
        with pytest.raises(ValueError):
            truncated_normal_sample(0.0, -1.0, 0.0, make_rng(0))


class TestGigParams:
    @pytest.mark.parametrize("order,chi,tilt", [
        (0.5, 0.0, 0.0),     # both zero
        (1.0, 1.0, -1.0),    # negative tilt
        (0.5, 1.0, 0.0),     # tilt zero needs order < 0
        (-0.5, 0.0, 1.0),    # chi zero needs order > 0
        (np.nan, 1.0, 1.0),
    ])
    def test_invariants(self, order, chi, tilt):
        with pytest.raises(ValueError):
            GigParams(order, chi, tilt)


class TestGigSample:
    def test_reciprocal_gamma_mean_by_median_of_means(self):
        # per-draw variance is infinite (shape 3/2): median over 100 blocks
        draws = gig_sample(GigParams(-1.5, 1.0, 0.0), make_rng(12), size=10**6)
        blocks = draws.reshape(100, 10**4).mean(axis=1)
        assert abs(np.median(blocks) - 1.0) <= 0.10

    def test_tilted_mean(self):
        draws = gig_sample(GigParams(-1.5, 1.0, 1.0), make_rng(13), size=10**6)
        assert abs(draws.mean() - 0.5) <= 4 * mcse(draws)

    def test_half_order_mean_uses_symmetry(self):
        # (delta/gamma) K_{1/2}(2) / K_{-1/2}(2) = delta/gamma = 2
        draws = gig_sample(GigParams(-0.5, 2.0, 1.0), make_rng(14), size=10**6)
        assert abs(draws.mean() - 2.0) <= 4 * mcse(draws)

    @pytest.mark.parametrize("order,chi,tilt", [
        (-1.5, 1.0, 1.0),
        (-1.5, 0.5, 2.0),
        (-0.5, 2.0, 1.0),
        (2.0, 1.0, 1.5),
        (0.5, 1.0, 2.0),
    ])
    def test_mean_law_against_bessel_ratio(self, order, chi, tilt):
        draws = gig_sample(GigParams(order, chi, tilt), make_rng(15), size=10**6)
        z = chi * tilt
        truth = (chi / tilt) * np.exp(
            log_bessel_k(order + 1.0, z) - log_bessel_k(order, z))
        assert abs(draws.mean() - truth) <= 4 * mcse(draws)

    def test_zero_tilt_matches_inverted_gamma_ks(self):
        delta = 1.3
        draws = gig_sample(GigParams(-1.5, delta, 0.0), make_rng(16), size=10**5)
        ref = (delta**2 / 2.0) / make_rng(17).standard_gamma(1.5, size=10**5)
        stat = stats.ks_2samp(draws, ref).statistic
        assert stat <= 0.01

    @pytest.mark.parametrize("order,chi,tilt", [
        (-1.5, 1.0, 1.0),     # tilt rejection
        (-1.5, 1.0, 4.0),     # shifted ratio-of-uniforms
        (-1.5, 0.02, 300.0),  # large tilt, small chi
        (-1.5, 2.0, 60.0),    # omega = 120
        (0.4, 0.5, 1.0),      # plain ratio-of-uniforms
        (-0.2, 1.0, 0.3),     # reflected plain
        (3.5, 0.8, 0.9),      # positive order, shift
        (1.0, 3.0, 0.1),      # omega < 1 with order 1: mirror tilt rejection
    ])
    def test_ks_against_scipy_reference_density(self, order, chi, tilt):
        draws = gig_sample(GigParams(order, chi, tilt), make_rng(18), size=3 * 10**4)
        res = stats.kstest(draws, lambda x: stats.geninvgauss.cdf(
            x, p=order, b=chi * tilt, scale=chi / tilt))
        assert res.pvalue > 1e-3

    def test_support_and_determinism(self):
        params = GigParams(-1.5, 0.7, 2.2)
        a = gig_sample(params, make_rng(19), size=500)
        b = gig_sample(params, make_rng(19), size=500)
        assert np.all(a > 0.0)
        assert np.array_equal(a, b)

    def test_gig_rvs_broadcasts(self):
        rng = make_rng(20)
        chi = np.linspace(0.1, 1.0, 12).reshape(3, 4)
        out = gig_rvs(-1.5, chi, np.full((3, 4), 1.0), rng)
        assert out.shape == (3, 4)
        assert np.all(out > 0)


class StuckGenerator:
    """A generator whose `random` always returns 1.0, so that no rejection
    step ever accepts; every other method is the real generator's."""

    def __init__(self, seed):
        self._rng = make_rng(seed)

    def random(self, size=None):
        return 1.0 if size is None else np.ones(size)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class TestRejectionPassCap:
    """Every rejection loop stops after MAX_REJECTION_PASSES passes and names
    the parameters and the number of draws still pending."""

    @staticmethod
    def passes_message(n):
        return f"{n} draw\\(s\\) still rejected after {MAX_REJECTION_PASSES} passes"

    def test_tilt_rejection(self):
        with pytest.raises(ValueError, match=self.passes_message(3)) as err:
            gig_rvs(-1.5, np.array([0.5, 0.3, 0.2]), 1.0, StuckGenerator(1))
        assert "GIG tilt rejection" in str(err.value)
        assert "order -1.5, chi 0.2 to 0.5, tilt 1)" in str(err.value)

    def test_mirror_gamma_rejection(self):
        with pytest.raises(ValueError, match=self.passes_message(2)) as err:
            gig_rvs(1.5, np.array([0.5, 0.5]), np.array([1.0, 2.0]),
                    StuckGenerator(2))
        assert "order 1.5, chi 0.5, tilt 1 to 2)" in str(err.value)

    def test_ratio_of_uniforms_with_shift(self):
        with pytest.raises(ValueError, match=self.passes_message(2)) as err:
            gig_rvs(-1.5, np.array([2.0, 3.0]), 2.0, StuckGenerator(3))
        assert "mode shift" in str(err.value)
        assert "order 1.5, omega 4 to 6)" in str(err.value)

    def test_ratio_of_uniforms_plain(self):
        with pytest.raises(ValueError, match=self.passes_message(1)) as err:
            gig_rvs(0.3, np.array([0.5]), 1.0, StuckGenerator(4))
        assert "order 0.3, omega 0.5)" in str(err.value)

    def test_truncated_normal_tail(self):
        with pytest.raises(ValueError, match=self.passes_message(4)) as err:
            truncated_normal_sample(0.0, 1.0, 6.0, StuckGenerator(5), size=4)
        assert "cutoff 6)" in str(err.value)

    @pytest.mark.parametrize("tilts", ([1.5] * 3, [1.5, 0.0, 4.0]))
    def test_pig_ladder_kernel(self, tilts):
        # rows that share their split take the dense first pass; here the
        # mixed tilts split at different terms and take the masked one
        with pytest.raises(ValueError, match="P-IG ladder tilt rejection") as err:
            pig_sample_with_tilts(PigParams.integer(), tilts,
                                  PigSamplerConfig(trunc_terms=4), StuckGenerator(6))
        assert "order -1.5, chi" in str(err.value) and "tilt" in str(err.value)
        assert f"after {MAX_REJECTION_PASSES} passes" in str(err.value)


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.floats(min_value=0.05, max_value=20.0),
       st.floats(min_value=0.05, max_value=20.0))
def test_gig_determinism_property(seed, chi, tilt):
    params = GigParams(-1.5, chi, tilt)
    assert gig_sample(params, make_rng(seed)) == gig_sample(params, make_rng(seed))


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_truncnorm_within_support_property(seed):
    x = truncated_normal_sample(-3.0, 2.0, -1.0, make_rng(seed), size=16)
    assert np.all(x > -1.0)
