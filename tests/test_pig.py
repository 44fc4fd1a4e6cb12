import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats
from scipy.special import kve

from polyaig import pig
from polyaig.pig import (PigParams, PigSamplerConfig, mc_transform,
                         pig_laplace_closed, pig_laplace_product, pig_sample,
                         pig_sample_with_tilts)
from polyaig.rng import _OMEGA_SPLIT, gig_rvs, make_rng
from polyaig.special import EULER_GAMMA, log_gamma

SQRT2 = np.sqrt(2.0)


def _gig_term_mean(params, k):
    """Mean delta^2/(1 + delta |c|) of convolution term k,
    GIG(-3/2, delta = 1/(sqrt2 d_k), |c|)."""
    delta = 1.0 / (SQRT2 * float(params.d_values(k)[-1]))
    return delta * delta / (1.0 + delta * params.tilt)


def _pig_tail_mean(params, config):
    """Mean of the convolution terms past `config.trunc_terms`."""
    return float(pig._tail_mean_ladder(params.shift, config.trunc_terms,
                                       params.tilt))


def _pig_mean(params, config=PigSamplerConfig()):
    """Exact mean of the full convolution: the term means plus the tail."""
    delta = 1.0 / (SQRT2 * params.d_values(config.trunc_terms))
    head = np.sum(delta * delta / (1.0 + delta * params.tilt))
    return float(head + _pig_tail_mean(params, config))


class TestParams:
    def test_rules(self):
        assert np.array_equal(PigParams.integer().d_values(4), [1, 2, 3, 4])
        assert np.array_equal(PigParams.shifted(2.5).d_values(3), [2.5, 3.5, 4.5])

    def test_shift_positive(self):
        with pytest.raises(ValueError):
            PigParams.shifted(0.0)

    def test_config_invariants(self):
        with pytest.raises(ValueError):
            PigSamplerConfig(trunc_terms=0)


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


class TestGigTermMean:
    def test_untilted_first_and_tenth(self):
        assert _gig_term_mean(PigParams.integer(), 1) == pytest.approx(0.5)
        assert _gig_term_mean(PigParams.integer(), 10) == pytest.approx(0.005)

    def test_tilted_first(self):
        assert _gig_term_mean(PigParams.integer(c=SQRT2), 1) == pytest.approx(0.25)

    def test_matches_bessel_ratio(self):
        params = PigParams.integer(c=1.7)
        for k in (1, 2, 17):
            delta = 1.0 / (SQRT2 * k)
            z = delta * 1.7
            ratio = (delta / 1.7) * kve(-0.5, z) / kve(-1.5, z)
            assert _gig_term_mean(params, k) == pytest.approx(ratio, rel=1e-12)


class TestTailMean:
    def test_untilted_inverse_k(self):
        cfg = PigSamplerConfig(trunc_terms=1000)
        val = _pig_tail_mean(PigParams.integer(), cfg)
        assert val == pytest.approx(0.0005, rel=0.02)

    def test_cutoff_at_horizon_keeps_integral_bound(self):
        cfg = PigSamplerConfig(trunc_terms=5000)
        val = _pig_tail_mean(PigParams.integer(), cfg)
        assert 0.0 < val <= 1.0 / (2.0 * 5000)

    def test_tilt_shrinks_tail(self):
        cfg = PigSamplerConfig(trunc_terms=200)
        tilted = _pig_tail_mean(PigParams.integer(c=10.0), cfg)
        untilted = _pig_tail_mean(PigParams.integer(), cfg)
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
        assert _pig_tail_mean(PigParams.integer(c=c), cfg) == pytest.approx(
            brute, rel=1e-3)


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
        assert abs(draws.mean() - _pig_mean(params)) <= 4 * se

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
        assert abs(crude.mean() - _pig_mean(params)) <= 4 * se


def _gig_rvs_row_sums(deltas, tilts, rng):
    """The P-IG body as one general `gig_rvs` call per chunk of rows."""
    kt = deltas.size
    rows = max(1, pig._CHUNK_ELEMENTS // kt)
    out = np.empty(tilts.size)
    for lo in range(0, tilts.size, rows):
        hi = min(tilts.size, lo + rows)
        chi = np.broadcast_to(deltas, (hi - lo, kt))
        tilt = np.broadcast_to(tilts[lo:hi, None], (hi - lo, kt))
        out[lo:hi] = gig_rvs(chi, tilt, rng).sum(axis=1)
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
        # the kernel takes any deltas, not only an affine ladder's
        deltas = 1.0 / (SQRT2 * np.array([3.0, 1.0, 7.0, 2.0, 2.0, 0.5, 9.0, 4.0]))
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



@pytest.mark.parametrize("copies", (1, 40))
def test_samplers_reach_gig_rvs_only_untilted_or_above_the_split(monkeypatch, copies):
    """The P-IG kernels draw every omega <= `_OMEGA_SPLIT` entry themselves,
    so `gig_rvs`'s own tilt rejection serves only `validate` and the
    reference stream of `_gig_rvs_row_sums`."""
    seen = []

    def recording(chi, tilt, rng):
        chi, tilt = np.broadcast_arrays(chi, tilt)
        seen.append((chi.ravel().copy(), tilt.ravel().copy()))
        return gig_rvs(chi, tilt, rng)

    monkeypatch.setattr(pig, "gig_rvs", recording)
    tilts = np.array([0.0, 0.3, 2.8, 27.0])
    pig_sample_with_tilts(PigParams.integer(), np.repeat(tilts, 3),
                          PigSamplerConfig(trunc_terms=200), make_rng(6),
                          copies=copies)
    chi, tilt = (np.concatenate(v) for v in zip(*seen))
    assert np.any(chi * tilt > _OMEGA_SPLIT)
    assert np.all((tilt == 0.0) | (chi * tilt > _OMEGA_SPLIT))


def _reverse_bessel(nu):
    """Coefficients (ascending powers of y) of theta_nu, from the recurrence
    theta_nu = (2 nu - 1) theta_{nu-1} + y^2 theta_{nu-2}."""
    from fractions import Fraction
    polys = [[Fraction(1)], [Fraction(1), Fraction(1)]]
    for n in range(2, nu + 1):
        nxt = [Fraction(0)] * (n + 1)
        for j, c in enumerate(polys[n - 1]):
            nxt[j] += (2 * n - 1) * c
        for j, c in enumerate(polys[n - 2]):
            nxt[j + 2] += c
        polys.append(nxt)
    return polys[nu]


# (copies, tilt) cases: omega on both sides of 2, sums of single rows
# (2, 6 copies) and every group size 1-32 (36, 201 copies)
GROUP_CASES = [(c, t) for c in (2, 6, 36, 201) for t in (0.0, 0.5, 2.8, 27.0)]


class TestGroupedSums:
    """`copies` > 1 draws each entry as the sum of that many independent
    P-IG draws at its tilt, term by term in grouped variates."""

    @pytest.mark.parametrize("level", range(1, pig._MAX_LEVEL + 1))
    def test_weight_table_is_exact(self, level):
        from fractions import Fraction
        from math import comb, prod
        assert set(pig._order_cdfs()) == set(range(1, pig._MAX_LEVEL + 1))
        g = 2**level
        p = [Fraction(n, g**g) for n in pig._group_weights(g)]
        mixture = [Fraction(0)] * (g + 1)
        for nu, weight in enumerate(p):
            theta = _reverse_bessel(nu)
            for j, c in enumerate(theta):
                mixture[j] += weight * c / theta[0]
        assert mixture == [Fraction(comb(g, j), g**j) for j in range(g + 1)]
        assert all(w >= 0 for w in p) and sum(p) == 1
        assert p[0] == 0 and p[1] == Fraction(1, g * g)
        assert p[g] == Fraction(prod(range(1, 2 * g, 2)), g**g)
        cdf = pig._order_cdfs()[level]
        assert cdf.size == g + 1 and cdf[-1] == 1.0
        assert np.all(np.diff(cdf) >= 0.0)
        assert np.array_equal(cdf, [float(sum(p[:j + 1])) for j in range(g + 1)])

    def test_group_sizes(self):
        omega = np.array([0.0, 0.2, 0.5, 1.0, 1.5, 2.0])
        loss = omega - np.log1p(omega)
        for copies in (2, 3, 6, 36, 201):
            levels = pig._group_levels(omega, copies)
            g = 2.0**levels
            assert np.all(g <= min(copies, 32))
            assert np.all((g == 1) | (g * loss <= np.log(2.0)))
            bigger = np.minimum(2 * g, 64)
            assert np.all((bigger > min(copies, 32)) | (bigger * loss > np.log(2.0)))

    @pytest.mark.parametrize("copies, tilt", GROUP_CASES)
    def test_transform_matches_product_power(self, copies, tilt):
        params, cfg = PigParams.integer(c=tilt), PigSamplerConfig(trunc_terms=200)
        sums = pig_sample_with_tilts(params, np.full(1500, tilt), cfg,
                                     make_rng(copies), copies=copies)
        tail = _pig_tail_mean(params, cfg)
        for s in (0.3, 1.0, 3.0):
            t = np.sqrt(s / (copies * _pig_mean(params, cfg)))
            one = pig_laplace_product(params, t, 200) * np.exp(-t * t * tail)
            want = one**copies
            mc, se = mc_transform(sums, t)
            assert abs(mc - want) <= 4 * se

    @pytest.mark.parametrize("copies, tilt", GROUP_CASES)
    def test_moments_match_summed_single_draws(self, copies, tilt):
        params, cfg = PigParams.integer(), PigSamplerConfig(trunc_terms=24)
        n = 1500
        grouped = pig_sample_with_tilts(params, np.full(n, tilt), cfg,
                                        make_rng(11), copies=copies)
        single = pig_sample_with_tilts(params, np.full((n, copies), tilt), cfg,
                                       make_rng(12)).sum(axis=1)
        if tilt == 0.0:  # infinite variance: compare the laws instead
            assert stats.ks_2samp(grouped, single).pvalue > 1e-3
            return
        for a, b in ((grouped, single),
                     ((grouped - grouped.mean())**2, (single - single.mean())**2)):
            se = np.hypot(a.std(ddof=1), b.std(ddof=1)) / np.sqrt(n)
            assert abs(a.mean() - b.mean()) <= 4 * se

    @pytest.mark.parametrize("copies", (7, 40))  # single rows, then groups
    def test_shape_determinism_and_domain(self, copies):
        params, cfg = PigParams.integer(), PigSamplerConfig(trunc_terms=50)
        tilts = np.array([[0.0, 1.0], [3.0, 40.0]])
        a = pig_sample_with_tilts(params, tilts, cfg, make_rng(4), copies=copies)
        assert a.shape == tilts.shape and np.all(a > 0.0)
        assert np.array_equal(a, pig_sample_with_tilts(params, tilts, cfg,
                                                       make_rng(4), copies=copies))
        with pytest.raises(ValueError, match="copies"):
            pig_sample_with_tilts(params, tilts, cfg, make_rng(4), copies=0)


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
    lo = _gig_term_mean(PigParams.integer(c=c), k)
    hi = _gig_term_mean(PigParams.integer(c=c + 0.5), k)
    assert hi < lo or lo == pytest.approx(hi)
