import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyaig import pig
from polyaig.pig import (PigParams, PigSamplerConfig, erg_laplace,
                         gig_term_mean, mc_transform, pig_laplace_closed,
                         pig_laplace_product, pig_mean, pig_sample,
                         pig_sample_with_tilts, pig_tail_mean)
from polyaig.rng import gig_rvs, make_rng
from polyaig.special import EULER_GAMMA, log_gamma

SQRT2 = np.sqrt(2.0)


class TestParams:
    def test_rules(self):
        assert np.array_equal(PigParams.integer().d_values(4), [1, 2, 3, 4])
        assert np.array_equal(PigParams.shifted(2.5).d_values(3), [2.5, 3.5, 4.5])
        assert np.array_equal(PigParams.explicit([1, 3, 9]).d_values(2), [1, 3])

    def test_explicit_growth_check(self):
        with pytest.raises(ValueError):
            PigParams.explicit([1.0, 1e-9], min_growth=1e-3)
        with pytest.raises(ValueError):
            PigParams.explicit([])

    def test_explicit_terms_capped(self):
        with pytest.raises(ValueError):
            PigParams.explicit([1.0, 2.0]).d_values(3)

    def test_shift_positive(self):
        with pytest.raises(ValueError):
            PigParams.shifted(0.0)

    def test_config_invariants(self):
        with pytest.raises(ValueError):
            PigSamplerConfig(trunc_terms=0)
        with pytest.raises(ValueError):
            PigSamplerConfig(trunc_terms=10, tail_horizon=5)


class TestLaplaceProduct:
    def test_unit_at_zero(self):
        assert pig_laplace_product(PigParams.integer(), 0.0, 50) == 1.0

    def test_truncated_product_approaches_closed_form(self):
        val = pig_laplace_product(PigParams.integer(), 1.0, 10**5)
        assert val == pytest.approx(np.exp(-EULER_GAMMA), abs=1e-4)

    def test_tilted_unit_at_zero(self):
        val = pig_laplace_product(PigParams.integer(c=SQRT2), 0.0, 10**5)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_monotone_in_terms(self):
        params = PigParams.integer(c=0.7)
        vals = [pig_laplace_product(params, 1.3, n) for n in (10, 100, 1000)]
        assert vals[0] > vals[1] > vals[2]


class TestLaplaceClosed:
    def test_untilted_at_one(self):
        assert pig_laplace_closed(PigParams.integer(), 1.0) == pytest.approx(
            0.5614594835668851, rel=1e-12)

    def test_untilted_at_half_vs_product_oracle(self):
        closed = pig_laplace_closed(PigParams.integer(), 0.5)
        direct = np.exp(-EULER_GAMMA / 2.0 - log_gamma(1.5))
        assert closed == pytest.approx(direct, rel=1e-12)
        product = pig_laplace_product(PigParams.integer(), 0.5, 10**6)
        assert closed == pytest.approx(product, abs=1e-5)

    def test_tilted_vs_gamma_ratio(self):
        # u = sqrt(2), v = 1: exp(gamma (1 - sqrt2)) Gamma(2)/Gamma(1 + sqrt2)
        params = PigParams.integer(c=SQRT2)
        direct = np.exp(EULER_GAMMA * (1.0 - SQRT2)
                        + log_gamma(2.0) - log_gamma(1.0 + SQRT2))
        assert pig_laplace_closed(params, 1.0) == pytest.approx(direct, rel=1e-12)
        product = pig_laplace_product(params, 1.0, 10**6)
        assert pig_laplace_closed(params, 1.0) == pytest.approx(product, abs=1e-5)

    @pytest.mark.parametrize("c", (0.0, 1.0, SQRT2, 3.0))
    @pytest.mark.parametrize("t", (0.5, 1.0, 2.0))
    def test_log_agreement_with_product(self, c, t):
        params = PigParams.integer(c=c)
        log_closed = np.log(pig_laplace_closed(params, t))
        log_product = np.log(pig_laplace_product(params, t, 10**6))
        assert abs(log_closed - log_product) <= 1e-4

    @pytest.mark.parametrize("shift", (0.7, 2.5))
    def test_shifted_rule_matches_product(self, shift):
        params = PigParams.shifted(shift, c=1.1)
        log_closed = np.log(pig_laplace_closed(params, 0.8))
        log_product = np.log(pig_laplace_product(params, 0.8, 10**6))
        assert abs(log_closed - log_product) <= 1e-4

    def test_explicit_rule_rejected(self):
        with pytest.raises(ValueError):
            pig_laplace_closed(PigParams.explicit([1.0, 2.0]), 1.0)

    @pytest.mark.parametrize("c", (0.0, 1.0, 3.0))
    def test_transform_bounds_and_monotonicity(self, c):
        params = PigParams.integer(c=c)
        grid = np.arange(0.0, 4.25, 0.25)
        vals = np.array([pig_laplace_closed(params, t) for t in grid])
        assert np.all(vals > 0.0) and np.all(vals <= 1.0)
        assert vals[0] == pytest.approx(1.0, rel=1e-12)
        assert np.all(vals[1:] < 1.0)
        assert np.all(np.diff(vals) < 0.0)
        neg = np.array([pig_laplace_closed(params, -t) for t in grid])
        assert np.allclose(neg, vals, rtol=1e-12)  # even in t


class TestErgLaplace:
    def test_values(self):
        assert erg_laplace(1.0, 1.0) == pytest.approx(1.0, rel=1e-12)
        assert erg_laplace(2.0, 1.0) == pytest.approx(0.5, rel=1e-12)
        # exceeds one below the digamma root: formula evaluator only
        assert erg_laplace(1.0, 0.5) == pytest.approx(
            2.0 / np.sqrt(np.pi), rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            erg_laplace(0.0, 1.0)
        with pytest.raises(ValueError):
            erg_laplace(1.0, -0.5)


class TestGigTermMean:
    def test_untilted_first_and_tenth(self):
        assert gig_term_mean(PigParams.integer(), 1) == pytest.approx(0.5)
        assert gig_term_mean(PigParams.integer(), 10) == pytest.approx(0.005)

    def test_tilted_first(self):
        assert gig_term_mean(PigParams.integer(c=SQRT2), 1) == pytest.approx(0.25)

    def test_matches_bessel_ratio(self):
        from polyaig.special import log_bessel_k
        params = PigParams.integer(c=1.7)
        for k in (1, 2, 17):
            delta = 1.0 / (SQRT2 * k)
            z = delta * 1.7
            ratio = (delta / 1.7) * np.exp(
                log_bessel_k(-0.5, z) - log_bessel_k(-1.5, z))
            assert gig_term_mean(params, k) == pytest.approx(ratio, rel=1e-12)


class TestTailMean:
    def test_untilted_inverse_k(self):
        cfg = PigSamplerConfig(trunc_terms=1000)
        val = pig_tail_mean(PigParams.integer(), cfg)
        assert val == pytest.approx(0.0005, rel=0.02)

    def test_cutoff_at_horizon_keeps_integral_bound(self):
        cfg = PigSamplerConfig(trunc_terms=5000, tail_horizon=5000)
        val = pig_tail_mean(PigParams.integer(), cfg)
        assert 0.0 < val <= 1.0 / (2.0 * 5000)

    def test_tilt_shrinks_tail(self):
        cfg = PigSamplerConfig(trunc_terms=200)
        tilted = pig_tail_mean(PigParams.integer(c=10.0), cfg)
        untilted = pig_tail_mean(PigParams.integer(), cfg)
        assert tilted < untilted

    @pytest.mark.parametrize("c", (0.0, 2.0))
    def test_against_brute_force_sum(self, c):
        cfg = PigSamplerConfig(trunc_terms=500)
        ks = np.arange(501, 3_000_001, dtype=float)
        delta = 1.0 / (SQRT2 * ks)
        if c == 0.0:
            brute = np.sum(delta**2) + 1.0 / (2.0 * 3_000_000.5)
        else:
            brute = np.sum(delta**2 / (1.0 + delta * c)) \
                + 1.0 / (2.0 * 3_000_000.5)
        assert pig_tail_mean(PigParams.integer(c=c), cfg) == pytest.approx(
            brute, rel=1e-3)

    def test_explicit_ladder_tail(self):
        params = PigParams.explicit([1.0, 2.0, 3.0, 4.0])
        cfg = PigSamplerConfig(trunc_terms=2, tail_horizon=10)
        expected = 1.0 / (2 * 9.0) + 1.0 / (2 * 16.0)
        assert pig_tail_mean(params, cfg) == pytest.approx(expected, rel=1e-12)
        cfg_all = PigSamplerConfig(trunc_terms=4, tail_horizon=10)
        assert pig_tail_mean(params, cfg_all) == 0.0


class TestSampler:
    def test_support_and_determinism(self):
        params = PigParams.integer(c=1.0)
        cfg = PigSamplerConfig(trunc_terms=50)
        a = pig_sample(params, cfg, make_rng(1), size=256)
        b = pig_sample(params, cfg, make_rng(1), size=256)
        assert np.all(a > 0.0)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("c", (0.0, SQRT2))
    def test_mc_transform_matches_closed(self, c):
        params = PigParams.integer(c=c)
        draws = pig_sample(params, PigSamplerConfig(trunc_terms=1000),
                           make_rng(2), size=3 * 10**4)
        for t in (0.5, 1.0, 2.0):
            mc, se = mc_transform(draws, t)
            assert abs(mc - pig_laplace_closed(params, t)) <= 3 * se + 1e-3

    def test_tilted_sample_mean_matches_term_sum(self):
        params = PigParams.integer(c=2.0)
        draws = pig_sample(params, PigSamplerConfig(trunc_terms=1000),
                           make_rng(3), size=2 * 10**5)
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - pig_mean(params)) <= 4 * se

    def test_tilt_monotonicity_of_transform(self):
        cfg = PigSamplerConfig(trunc_terms=500)
        t = 1.0
        mcs = []
        for c in (0.5, 2.0):
            draws = pig_sample(PigParams.integer(c=c), cfg, make_rng(4),
                               size=4 * 10**4)
            mcs.append(mc_transform(draws, t))
        (lo, se_lo), (hi, se_hi) = mcs
        assert hi - lo > -3.0 * np.hypot(se_lo, se_hi)

    def test_shifted_rule_sampler_matches_its_transform(self):
        params = PigParams.shifted(2.0, c=1.0)
        draws = pig_sample(params, PigSamplerConfig(trunc_terms=800),
                           make_rng(5), size=3 * 10**4)
        mc, se = mc_transform(draws, 1.0)
        assert abs(mc - pig_laplace_closed(params, 1.0)) <= 3 * se + 1e-3

    def test_explicit_rule_sampler(self):
        params = PigParams.explicit(list(range(1, 41)), c=1.0)
        cfg = PigSamplerConfig(trunc_terms=100)  # capped at the 40 listed terms
        draws = pig_sample(params, cfg, make_rng(6), size=2 * 10**4)
        assert np.all(draws > 0)
        mc, se = mc_transform(draws, 1.0)
        truth = pig_laplace_product(params, 1.0, 40)
        assert abs(mc - truth) <= 4 * se

    def test_batch_tilts_shapes(self):
        tilts = np.array([[0.0, 1.0], [2.0, 0.3], [5.0, 90.0]])
        out = pig_sample_with_tilts(PigParams.integer(), tilts,
                                    PigSamplerConfig(trunc_terms=64), make_rng(7))
        assert out.shape == tilts.shape
        assert np.all(out > 0.0)

    def test_mean_bias_bounded_by_tail_choice(self):
        # the added tail mean keeps E[draw] exact for any truncation
        params = PigParams.integer(c=3.0)
        crude = pig_sample(params, PigSamplerConfig(trunc_terms=5),
                           make_rng(8), size=2 * 10**5)
        se = crude.std(ddof=1) / np.sqrt(crude.size)
        assert abs(crude.mean() - pig_mean(params)) <= 4 * se


def _gig_rvs_row_sums(deltas, tilts, rng):
    """The P-IG body as one general `gig_rvs` call per chunk of rows."""
    kt = deltas.size
    rows = max(1, pig._CHUNK_ELEMENTS // kt)
    out = np.empty(tilts.size)
    for lo in range(0, tilts.size, rows):
        hi = min(tilts.size, lo + rows)
        chi = np.broadcast_to(deltas, (hi - lo, kt))
        tilt = np.broadcast_to(tilts[lo:hi, None], (hi - lo, kt))
        out[lo:hi] = gig_rvs(-1.5, chi, tilt, rng).sum(axis=1)
    return out


def _ladder_deltas(params, terms):
    return 1.0 / (SQRT2 * params.d_values(terms))


class TestLadderKernel:
    """The dedicated GIG(-3/2) ladder kernel returns exactly what the general
    `gig_rvs` returns from the same seed and leaves the generator in the
    same state, so chains and output files do not depend on which runs."""

    @staticmethod
    def assert_same_stream(deltas, tilts, seed=31):
        deltas = np.asarray(deltas, dtype=float)
        tilts = np.asarray(tilts, dtype=float)
        rng_kernel, rng_ref = make_rng(seed), make_rng(seed)
        got = pig._pig_component_sums(deltas, tilts, rng_kernel)
        want = _gig_rvs_row_sums(deltas, tilts, rng_ref)
        assert np.array_equal(got, want)
        assert rng_kernel.random() == rng_ref.random()

    def test_untilted_rows_mixed_with_tilted(self):
        tilts = np.array([0.0, 3.0, 0.0, 0.0, 40.0, 0.7, 0.0])
        self.assert_same_stream(_ladder_deltas(PigParams.integer(), 150), tilts)

    def test_all_rows_untilted(self):
        self.assert_same_stream(_ladder_deltas(PigParams.integer(), 50),
                                np.zeros(9))

    @pytest.mark.parametrize("tilt", (4.0, 8.0, 16.0))
    def test_omega_exactly_at_the_split(self, tilt):
        deltas = 2.0 ** -np.arange(12.0)  # omega = tilt * delta hits 2 exactly
        assert np.any(tilt * deltas == 2.0)
        assert np.any(tilt * deltas > 2.0) and np.any(tilt * deltas < 2.0)
        self.assert_same_stream(deltas, np.full(25, tilt))
        self.assert_same_stream(deltas, np.array([tilt, 1.0, tilt, 0.0, 2 * tilt]))

    @pytest.mark.parametrize("tilt", (0.5, SQRT2 * 2.0, SQRT2 * 19.0, 300.0))
    def test_one_shared_tilt(self, tilt):
        # the gamma-shape update: every row has the same tilt
        self.assert_same_stream(_ladder_deltas(PigParams.integer(), 200),
                                np.full(201, tilt))

    @pytest.mark.parametrize("alpha", ([0.05, 0.4, 1.3, 2.0, 7.5, 19.0],
                                       [0.05, 0.4, 1.3, 1.9],
                                       [2.5, 2.9, 2.1]))
    def test_distinct_tilt_per_row(self, alpha):
        # the Dirichlet update: rows cycle through the per-category tilts,
        # whose rejection entries start at different terms or all at one
        tilts = np.tile(SQRT2 * np.array(alpha), 6)
        self.assert_same_stream(_ladder_deltas(PigParams.integer(), 200), tilts)
        self.assert_same_stream(_ladder_deltas(PigParams.integer(), 200),
                                make_rng(5).uniform(0.0, 60.0, 40))

    def test_shifted_ladder(self):
        deltas = _ladder_deltas(PigParams.shifted(0.3), 120)
        self.assert_same_stream(deltas, np.full(30, 5.0))
        self.assert_same_stream(deltas, np.array([0.0, 5.0, 0.2, 11.0]))

    def test_explicit_ladder_not_increasing(self):
        ds = [3.0, 1.0, 7.0, 2.0, 2.0, 0.5, 9.0, 4.0]
        deltas = _ladder_deltas(PigParams.explicit(ds), len(ds))
        assert np.any(np.diff(deltas) > 0)
        self.assert_same_stream(deltas, np.full(40, 3.0))
        self.assert_same_stream(deltas, np.array([3.0, 0.0, 0.4, 12.0, 3.0]))

    @pytest.mark.parametrize("tilts", ([0.5], [0.5, 9.0, 0.0, 2.0], [9.0] * 7))
    def test_single_term(self, tilts):
        self.assert_same_stream(_ladder_deltas(PigParams.integer(), 1), tilts)

    def test_chunk_boundary(self, monkeypatch):
        monkeypatch.setattr(pig, "_CHUNK_ELEMENTS", 7 * 50 + 3)  # 7 rows a chunk
        deltas = _ladder_deltas(PigParams.integer(), 50)
        self.assert_same_stream(deltas, np.full(23, 6.0))
        self.assert_same_stream(deltas, np.tile([0.0, 0.9, 6.0, 30.0], 6))

    def test_public_sampler_uses_the_same_stream(self):
        params, cfg = PigParams.integer(), PigSamplerConfig(trunc_terms=80)
        tilts = np.array([[0.0, 1.0], [2.0, 0.3], [5.0, 90.0]])
        got = pig_sample_with_tilts(params, tilts, cfg, make_rng(9))
        body = _gig_rvs_row_sums(_ladder_deltas(params, 80), np.ravel(tilts),
                                 make_rng(9))
        tail = pig._tail_mean_ladder(1.0, 80, tilts)
        assert np.array_equal(got, body.reshape(tilts.shape) + tail)


@given(st.floats(min_value=0.0, max_value=6.0),
       st.floats(min_value=0.0, max_value=4.0))
def test_closed_form_bounds_property(c, t):
    val = pig_laplace_closed(PigParams.integer(c=c), t)
    assert 0.0 < val <= 1.0


@given(st.floats(min_value=0.05, max_value=4.0),
       st.floats(min_value=0.05, max_value=3.0))
def test_closed_vs_truncated_product_property(c, t):
    params = PigParams.integer(c=c)
    closed = pig_laplace_closed(params, t)
    product = pig_laplace_product(params, t, 20_000)
    assert product == pytest.approx(closed, abs=2e-3)


@given(st.integers(min_value=1, max_value=200),
       st.floats(min_value=0.0, max_value=8.0))
def test_term_mean_decreases_in_tilt_property(k, c):
    lo = gig_term_mean(PigParams.integer(c=c), k)
    hi = gig_term_mean(PigParams.integer(c=c + 0.5), k)
    assert hi < lo or lo == pytest.approx(hi)
