import itertools

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
        assert np.array_equal(PigParams().d_values(4), [1, 2, 3, 4])
        assert np.array_equal(PigParams(shift=2.5).d_values(3), [2.5, 3.5, 4.5])

    def test_shift_positive(self):
        with pytest.raises(ValueError):
            PigParams(shift=0.0)

    def test_config_invariants(self):
        with pytest.raises(ValueError):
            PigSamplerConfig(trunc_terms=0)

    @pytest.mark.parametrize("bad", (2.5, 3.0, "200"))
    def test_non_integer_trunc_terms_refused(self, bad):
        with pytest.raises(ValueError, match="trunc_terms must be an integer"):
            PigSamplerConfig(trunc_terms=bad)

    @pytest.mark.parametrize("bad", (2.5, 3.0))
    def test_non_integer_terms_refused(self, bad):
        with pytest.raises(ValueError, match="terms must be an integer"):
            PigParams().d_values(bad)


class TestLaplaceProduct:
    def test_unit_at_zero(self):
        assert pig_laplace_product(PigParams(), 0.0, 50) == 1.0

    def test_truncated_product_approaches_closed_form(self):
        val = pig_laplace_product(PigParams(), 1.0, 10**5)
        assert val == pytest.approx(np.exp(-EULER_GAMMA), abs=1e-4)

    def test_tilted_unit_at_zero(self):
        val = pig_laplace_product(PigParams(c=SQRT2), 0.0, 10**5)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_monotone_in_terms(self):
        params = PigParams(c=0.7)
        vals = [pig_laplace_product(params, 1.3, n) for n in (10, 100, 1000)]
        assert vals[0] > vals[1] > vals[2]


class TestLaplaceClosed:
    def test_untilted_at_one(self):
        assert pig_laplace_closed(PigParams(), 1.0) == pytest.approx(
            0.5614594835668851, rel=1e-12)

    def test_untilted_at_half_vs_product_oracle(self):
        closed = pig_laplace_closed(PigParams(), 0.5)
        direct = np.exp(-EULER_GAMMA / 2.0 - log_gamma(1.5))
        assert closed == pytest.approx(direct, rel=1e-12)
        product = pig_laplace_product(PigParams(), 0.5, 10**6)
        assert closed == pytest.approx(product, abs=1e-5)

    def test_tilted_vs_gamma_ratio(self):
        # u = sqrt(2), v = 1: exp(gamma (1 - sqrt2)) Gamma(2)/Gamma(1 + sqrt2)
        params = PigParams(c=SQRT2)
        direct = np.exp(EULER_GAMMA * (1.0 - SQRT2)
                        + log_gamma(2.0) - log_gamma(1.0 + SQRT2))
        assert pig_laplace_closed(params, 1.0) == pytest.approx(direct, rel=1e-12)
        product = pig_laplace_product(params, 1.0, 10**6)
        assert pig_laplace_closed(params, 1.0) == pytest.approx(product, abs=1e-5)

    @pytest.mark.parametrize("c", (0.0, 1.0, SQRT2, 3.0))
    @pytest.mark.parametrize("t", (0.5, 1.0, 2.0))
    def test_log_agreement_with_product(self, c, t):
        params = PigParams(c=c)
        log_closed = np.log(pig_laplace_closed(params, t))
        log_product = np.log(pig_laplace_product(params, t, 10**6))
        assert abs(log_closed - log_product) <= 1e-4

    @pytest.mark.parametrize("shift", (0.7, 2.5))
    def test_shifted_rule_matches_product(self, shift):
        params = PigParams(c=1.1, shift=shift)
        log_closed = np.log(pig_laplace_closed(params, 0.8))
        log_product = np.log(pig_laplace_product(params, 0.8, 10**6))
        assert abs(log_closed - log_product) <= 1e-4

    @pytest.mark.parametrize("c", (0.0, 1.0, 3.0))
    def test_transform_bounds_and_monotonicity(self, c):
        params = PigParams(c=c)
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
        assert _gig_term_mean(PigParams(), 1) == pytest.approx(0.5)
        assert _gig_term_mean(PigParams(), 10) == pytest.approx(0.005)

    def test_tilted_first(self):
        assert _gig_term_mean(PigParams(c=SQRT2), 1) == pytest.approx(0.25)

    def test_matches_bessel_ratio(self):
        params = PigParams(c=1.7)
        for k in (1, 2, 17):
            delta = 1.0 / (SQRT2 * k)
            z = delta * 1.7
            ratio = (delta / 1.7) * kve(-0.5, z) / kve(-1.5, z)
            assert _gig_term_mean(params, k) == pytest.approx(ratio, rel=1e-12)


class TestTailMean:
    def test_untilted_inverse_k(self):
        cfg = PigSamplerConfig(trunc_terms=1000)
        val = _pig_tail_mean(PigParams(), cfg)
        assert val == pytest.approx(0.0005, rel=0.02)

    def test_cutoff_at_horizon_keeps_integral_bound(self):
        cfg = PigSamplerConfig(trunc_terms=5000)
        val = _pig_tail_mean(PigParams(), cfg)
        assert 0.0 < val <= 1.0 / (2.0 * 5000)

    def test_tilt_shrinks_tail(self):
        cfg = PigSamplerConfig(trunc_terms=200)
        tilted = _pig_tail_mean(PigParams(c=10.0), cfg)
        untilted = _pig_tail_mean(PigParams(), cfg)
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
        assert _pig_tail_mean(PigParams(c=c), cfg) == pytest.approx(
            brute, rel=1e-3)


class TestSampler:
    def test_support_and_determinism(self):
        params = PigParams(c=1.0)
        cfg = PigSamplerConfig(trunc_terms=50)
        a = pig_sample(params, cfg, make_rng(1), size=256)
        b = pig_sample(params, cfg, make_rng(1), size=256)
        assert np.all(a > 0.0)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("c", (0.0, SQRT2))
    def test_mc_transform_matches_closed(self, c):
        params = PigParams(c=c)
        draws = pig_sample(params, PigSamplerConfig(trunc_terms=1000),
                           make_rng(2), size=3 * 10**4)
        for t in (0.5, 1.0, 2.0):
            mc, se = mc_transform(draws, t)
            assert abs(mc - pig_laplace_closed(params, t)) <= 3 * se + 1e-3

    def test_tilted_sample_mean_matches_term_sum(self):
        params = PigParams(c=2.0)
        draws = pig_sample(params, PigSamplerConfig(trunc_terms=1000),
                           make_rng(3), size=2 * 10**5)
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - _pig_mean(params)) <= 4 * se

    def test_tilt_monotonicity_of_transform(self):
        cfg = PigSamplerConfig(trunc_terms=500)
        t = 1.0
        mcs = []
        for c in (0.5, 2.0):
            draws = pig_sample(PigParams(c=c), cfg, make_rng(4),
                               size=4 * 10**4)
            mcs.append(mc_transform(draws, t))
        (lo, se_lo), (hi, se_hi) = mcs
        assert hi - lo > -3.0 * np.hypot(se_lo, se_hi)

    def test_shifted_rule_sampler_matches_its_transform(self):
        params = PigParams(c=1.0, shift=2.0)
        draws = pig_sample(params, PigSamplerConfig(trunc_terms=800),
                           make_rng(5), size=3 * 10**4)
        mc, se = mc_transform(draws, 1.0)
        assert abs(mc - pig_laplace_closed(params, 1.0)) <= 3 * se + 1e-3

    def test_batch_tilts_shapes(self):
        tilts = np.array([[0.0, 1.0], [2.0, 0.3], [5.0, 90.0]])
        out = pig_sample_with_tilts(PigParams(), tilts,
                                    PigSamplerConfig(trunc_terms=64), make_rng(7))
        assert out.shape == tilts.shape
        assert np.all(out > 0.0)

    @pytest.mark.parametrize("shape", ((0,), (0, 3)))
    def test_empty_tilts(self, shape):
        # no tilts: an empty array of their shape, and no variate drawn
        rng = make_rng(3)
        state = rng.bit_generator.state
        out = pig_sample_with_tilts(PigParams(), np.zeros(shape),
                                    PigSamplerConfig(), rng, copies=6)
        assert out.shape == shape
        none = pig_sample(PigParams(c=1.0), PigSamplerConfig(), rng, size=0)
        assert none.shape == (0,) and rng.bit_generator.state == state

    def test_mean_bias_bounded_by_tail_choice(self):
        # the added tail mean keeps E[draw] exact for any truncation
        params = PigParams(c=3.0)
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
    """Single-copy P-IG bodies, drawn as grouped sums of one copy per term,
    have the law of the general `gig_rvs` reference: for each tilt, the
    transforms of the two agree within 4 standard errors."""

    @staticmethod
    def assert_same_law(deltas, pattern, draw=None):
        """`pattern` tiled until each of its tilts has 1500 rows, drawn
        by `draw(rows, rng)` (default: `_grouped_sums` of one copy) and by
        `_gig_rvs_row_sums`, compared at three points of the transform."""
        deltas, pattern = np.asarray(deltas, float), np.asarray(pattern, float)
        rows = np.tile(pattern, -(-1500 // np.unique(
            pattern, return_counts=True)[1].min()))
        if draw is None:
            got = pig._grouped_sums(deltas, rows, 1, make_rng(31))
        else:
            got = draw(rows, make_rng(31))
        want = _gig_rvs_row_sums(deltas, rows, make_rng(32))
        for tilt in np.unique(pattern):
            mean = np.sum(deltas**2 / (1.0 + tilt * deltas))
            for s in (0.3, 1.0, 3.0):
                t = np.sqrt(s / mean)
                (a, se_a), (b, se_b) = (mc_transform(v[rows == tilt], t)
                                        for v in (got, want))
                assert abs(a - b) <= 4 * np.hypot(se_a, se_b)

    def test_untilted_rows_mixed_with_tilted(self):
        tilts = np.array([0.0, 3.0, 0.0, 0.0, 40.0, 0.7, 0.0])
        self.assert_same_law(_ladder_deltas(PigParams(), 150), tilts)

    def test_all_rows_untilted(self):
        self.assert_same_law(_ladder_deltas(PigParams(), 50), np.zeros(9))

    @pytest.mark.parametrize("tilt", (4.0, 8.0, 16.0))
    def test_omega_exactly_at_the_split(self, tilt):
        deltas = _OMEGA_SPLIT * 2.0 ** -np.arange(12.0)
        omega = tilt * deltas  # hits the split exactly
        assert np.any(omega == _OMEGA_SPLIT)
        assert np.any(omega > _OMEGA_SPLIT) and np.any(omega < _OMEGA_SPLIT)
        self.assert_same_law(deltas, np.full(25, tilt))
        self.assert_same_law(deltas, np.array([tilt, 1.0, tilt, 0.0, 2 * tilt]))

    @pytest.mark.parametrize("tilt", (0.5, SQRT2 * 2.0, SQRT2 * 19.0, 300.0))
    def test_one_shared_tilt(self, tilt):
        self.assert_same_law(_ladder_deltas(PigParams(), 200),
                             np.full(201, tilt))

    @pytest.mark.parametrize("alpha", ([0.05, 0.4, 1.3, 2.0, 7.5, 19.0],
                                       [0.05, 0.4, 1.3, 1.9],
                                       [2.5, 2.9, 2.1]))
    def test_distinct_tilt_per_row(self, alpha):
        # rows cycle through per-category tilts, whose entries within the
        # split start at different terms or all at one
        tilts = np.tile(SQRT2 * np.array(alpha), 6)
        self.assert_same_law(_ladder_deltas(PigParams(), 200), tilts)
        self.assert_same_law(_ladder_deltas(PigParams(), 200),
                             make_rng(5).uniform(0.0, 60.0, 6))

    def test_shifted_ladder(self):
        deltas = _ladder_deltas(PigParams(shift=0.3), 120)
        self.assert_same_law(deltas, np.full(30, 5.0))
        self.assert_same_law(deltas, np.array([0.0, 5.0, 0.2, 11.0]))

    def test_explicit_ladder_not_increasing(self):
        # the grouped sums take any deltas, not only an affine ladder's
        deltas = 1.0 / (SQRT2 * np.array([3.0, 1.0, 7.0, 2.0, 2.0, 0.5, 9.0, 4.0]))
        assert np.any(np.diff(deltas) > 0)
        self.assert_same_law(deltas, np.full(40, 3.0))
        self.assert_same_law(deltas, np.array([3.0, 0.0, 0.4, 12.0, 3.0]))

    @pytest.mark.parametrize("tilts", ([0.5], [0.5, 9.0, 0.0, 2.0], [9.0] * 7))
    def test_single_term(self, tilts):
        self.assert_same_law(_ladder_deltas(PigParams(), 1), tilts)

    def test_chunk_boundary(self, monkeypatch):
        monkeypatch.setattr(pig, "_CHUNK_ELEMENTS", 7 * 50 + 3)  # 7 rows a chunk
        params, cfg = PigParams(), PigSamplerConfig(trunc_terms=50)

        def public(rows, rng):
            return (pig_sample_with_tilts(params, rows, cfg, rng)
                    - pig._tail_mean_ladder(1.0, 50, rows))

        deltas = _ladder_deltas(params, 50)
        self.assert_same_law(deltas, np.full(23, 6.0), public)
        self.assert_same_law(deltas, np.tile([0.0, 0.9, 6.0, 30.0], 6), public)

    def test_public_sampler_matches_the_reference(self):
        params, cfg = PigParams(), PigSamplerConfig(trunc_terms=80)
        tilts = np.array([[0.0, 1.0], [2.0, 0.3], [5.0, 90.0]])

        def public(rows, rng):
            got = pig_sample_with_tilts(params, rows.reshape(-1, 2), cfg, rng)
            assert got.shape == (rows.size // 2, 2)
            return got.ravel() - pig._tail_mean_ladder(1.0, 80, rows)

        self.assert_same_law(_ladder_deltas(params, 80), tilts.ravel(), public)


@pytest.mark.parametrize("copies", (1, 40))
def test_samplers_reach_gig_rvs_only_above_the_split(monkeypatch, copies):
    """The P-IG sampler draws every omega <= `_OMEGA_SPLIT` entry itself,
    untilted ones included, so `gig_rvs`'s own tilt rejection serves only
    `validate` and the reference of `_gig_rvs_row_sums`."""
    seen = []

    def recording(chi, tilt, rng):
        chi, tilt = np.broadcast_arrays(chi, tilt)
        seen.append((chi.ravel().copy(), tilt.ravel().copy()))
        return gig_rvs(chi, tilt, rng)

    monkeypatch.setattr(pig, "gig_rvs", recording)
    tilts = np.array([0.0, 0.3, 2.8, 27.0])
    pig_sample_with_tilts(PigParams(), np.repeat(tilts, 3),
                          PigSamplerConfig(trunc_terms=200), make_rng(6),
                          copies=copies)
    chi, tilt = (np.concatenate(v) for v in zip(*seen))
    assert chi.size and np.all(chi * tilt > _OMEGA_SPLIT)


def _reverse_bessel_polys(g):
    """Integer coefficients (ascending powers of y) of theta_0..theta_g, from
    the recurrence theta_nu = (2 nu - 1) theta_{nu-1} + y^2 theta_{nu-2}."""
    polys = [[1], [1, 1]]
    for n in range(2, g + 1):
        nxt = [(2 * n - 1) * c for c in polys[n - 1]] + [0]
        for j, c in enumerate(polys[n - 2]):
            nxt[j + 2] += c
        polys.append(nxt)
    return polys[:g + 1]


# (copies, tilt) cases: omega on both sides of the split, one copy per group at
# copies 1, whole groups at every copy count, and power-of-two groups of
# 1-32 where a whole group of 36, 61 or 201 would accept less than half its
# proposals
GROUP_CASES = [(c, t) for c in (1, 2, 3, 6, 36, 61, 201)
               for t in (0.0, 0.5, 2.8, 27.0)]

# (tilts, copies) of the chains' calls: per category, shared alpha, gamma
# shape (2.83 and 26.4 reach the singles above the split), and six
# single-copy rows
CHAIN_CALLS = [
    (SQRT2 * np.array([[0.39, 0.44, 0.46, 0.35, 0.41, 0.27]]), 6),  # per category
    (SQRT2 * np.array([[0.05, 0.4, 1.3, 2.0, 7.5, 0.0]]), 6),
    (SQRT2 * np.array([[0.69]]), 36),  # shared alpha
    *[(np.array([t]), c) for t in (1.39, 2.83, 26.4) for c in (61, 201)],
    (np.array([0.0, 0.3, 1.39, 2.83, 26.4, 300.0]), 1),
]


class TestGroupedSums:
    """`copies` draws each entry as the sum of that many independent P-IG
    draws at its tilt, term by term in grouped variates."""

    @pytest.mark.parametrize("g", (1, 2, 3, 4, 5, 6, 8, 16, 32, 61, 201))
    def test_weight_table_is_exact(self, g):
        # g**g (1 + y/g)^g = sum_nu (P_nu / theta_nu(0)) theta_nu(y), in integers
        from itertools import accumulate
        from math import comb, prod
        weights = pig._group_weights(g)
        thetas = _reverse_bessel_polys(g)
        assert all(w % t[0] == 0 for w, t in zip(weights, thetas))
        mixture = [0] * (g + 1)
        for w, theta in zip(weights, thetas):
            for j, c in enumerate(theta):
                mixture[j] += w // theta[0] * c
        assert mixture == [comb(g, j) * g ** (g - j) for j in range(g + 1)]
        assert all(w >= 0 for w in weights) and sum(weights) == g**g
        assert weights[0] == 0 and weights[1] == g ** (g - 2)
        assert weights[g] == prod(range(1, 2 * g, 2))
        cdf = pig._order_cdf(g)
        assert cdf.size == g + 1 and cdf[-1] == 1.0
        assert np.all(np.diff(cdf) >= 0.0)
        assert np.array_equal(cdf, [c / g**g for c in accumulate(weights)])

    @pytest.mark.parametrize("copies", (2, 3, 6, 36, 61, 201, 256, 257, 1000))
    def test_guide_table_matches_searchsorted(self, copies):
        # the guide-table lookup returns searchsorted's index for uniforms
        # at, just below and just above every cdf value, and at both ends
        groups = pig._group_table(copies)
        for i, g in enumerate(groups.sizes.tolist()):
            cdf = pig._order_cdf(g)
            u = np.concatenate((make_rng(g).random(100_000), cdf,
                                np.nextafter(cdf, -1.0), np.nextafter(cdf, 2.0),
                                [0.0, 1.0 - 2.0**-53]))
            u = u[(u >= 0.0) & (u <= 1.0)]
            got = pig._order_shapes(u, np.full(u.size, i * (pig._GUIDE + 1)), groups)
            assert np.array_equal(got, cdf.searchsorted(u, side="right") + 0.5)

    def test_import_builds_no_weight_table(self):
        import os
        import subprocess
        import sys
        src = os.path.dirname(os.path.dirname(pig.__file__))
        code = "import polyaig.pig as p; assert p._ORDER_CDFS == {}"
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": src})

    @staticmethod
    def recorded_groups(deltas, tilts, copies, monkeypatch):
        """Size, row and term of every group that `_grouped_sums` hands to
        the rejection, in its order (tilts and deltas distinct)."""
        seen = []

        def record(guide_at, scale, neg_half_tilt2, groups, rng):
            group = (np.ones(scale.size, dtype=int) if guide_at is None
                     else groups.sizes[guide_at // (pig._GUIDE + 1)])
            seen.append((group, scale, neg_half_tilt2))
            return np.ones(scale.size)

        monkeypatch.setattr(pig, "_grouped_rejection", record)
        pig._grouped_sums(deltas, tilts, copies, make_rng(0))
        (group, scale, neg), = seen
        row = np.abs(neg[:, None] + 0.5 * tilts**2).argmin(axis=1)
        half_chi2 = 2.0 * scale / group**2
        term = np.abs(half_chi2[:, None] - deltas**2).argmin(axis=1)
        assert np.allclose(half_chi2, deltas[term] ** 2, rtol=1e-12, atol=0.0)
        return group, row, term

    def test_group_sizes(self, monkeypatch):
        deltas = _ladder_deltas(PigParams(), 200)
        for tilts, copies in itertools.product(
                (SQRT2 * np.array([0.05, 0.4, 0.7, 1.3, 2.0, 7.5]),
                 np.array([0.0, 0.3, 2.8, 27.0])),
                (1, 2, 3, 6, 36, 61, 201, 256, 257, 1000)):
            omega = tilts[:, None] * deltas
            group, row, term = self.recorded_groups(deltas, tilts, copies, monkeypatch)
            # (size, row, term) order
            assert np.array_equal(np.lexsort((term, row, group)), np.arange(group.size))
            # each cell within the split splits its copies into groups, the
            # others are single draws
            total = np.zeros(omega.shape, dtype=int)
            np.add.at(total, (row, term), group)
            assert np.all(total == np.where(omega <= _OMEGA_SPLIT, copies, 0))
            # every group of more than one copy accepts at least half its
            # proposals at its own row's omega: ((1+w) e^-w)^g >= 1/2
            w, g = omega[row, term], group
            loss = g * (w - np.log1p(w))
            assert np.all((g == 1) | (loss <= np.log(2.0) * (1 + 1e-12)))
            if copies in (6, 36) and tilts.size == 6:
                # the per-category case mixes whole groups with power-of-two ones
                assert np.any(g == copies) and np.any((g > 1) & (g < copies))
                assert np.any(omega > _OMEGA_SPLIT)

    @pytest.mark.parametrize("copies", (6, 36))
    def test_distinct_row_tilts(self, copies, monkeypatch):
        # each term's groups are sized at the largest omega within the split
        # among the rows, so a row with a smaller tilt draws groups sized for
        # a larger one: each row's law is still that of `copies` summed
        # single draws
        deltas = _ladder_deltas(PigParams(), 40)
        pattern = SQRT2 * np.array([0.05, 0.4, 0.7, 1.3, 2.0, 7.5])
        # whole groups, power-of-two groups and terms above the split all occur
        group, _, _ = self.recorded_groups(deltas, pattern, copies, monkeypatch)
        assert np.any(group == copies) and np.any((group > 1) & (group < copies))
        assert np.any(pattern[:, None] * deltas > _OMEGA_SPLIT)
        monkeypatch.undo()
        rows = np.tile(pattern, 600)
        got = pig._grouped_sums(deltas, rows, copies, make_rng(33))
        want = _gig_rvs_row_sums(deltas, rows.repeat(copies), make_rng(34))
        want = want.reshape(-1, copies).sum(axis=1)
        for tilt in pattern:
            mean = copies * np.sum(deltas**2 / (1.0 + tilt * deltas))
            for s in (0.3, 1.0, 3.0):
                t = np.sqrt(s / mean)
                (a, se_a), (b, se_b) = (mc_transform(v[rows == tilt], t)
                                        for v in (got, want))
                assert abs(a - b) <= 4 * np.hypot(se_a, se_b)

    @staticmethod
    def recorded_passes(monkeypatch):
        """Proposals drawn in each pass of each grouped rejection: one list
        per `_grouped_rejection` call, its first pass first."""
        calls = []
        rejection, proposals = pig._grouped_rejection, pig._group_proposals

        def record_rejection(*args):
            calls.append([])
            return rejection(*args)

        def record_proposals(guide_at, scale, groups, rng):
            calls[-1].append(scale.size)
            return proposals(guide_at, scale, groups, rng)

        monkeypatch.setattr(pig, "_grouped_rejection", record_rejection)
        monkeypatch.setattr(pig, "_group_proposals", record_proposals)
        return calls

    @staticmethod
    def assert_sized_retries(calls, copies, tilt):
        # many terms at tilt 27 and 201 copies leave more than B // 3 groups
        # pending after a pass: a pass of more than 4 (B // 3) proposals had
        # that many pending (up to B // 3 get 4 each), so fewer than 4 each
        if (copies, tilt) == (201, 27.0):
            retries = [n for passes in calls for n in passes[1:]]
            assert max(retries) > pig._RETRY_PROPOSALS * (pig._RETRY_BUDGET // 3)

    @pytest.mark.parametrize("copies, tilt", GROUP_CASES)
    def test_transform_matches_product_power(self, copies, tilt, monkeypatch):
        params, cfg = PigParams(c=tilt), PigSamplerConfig(trunc_terms=200)
        calls = self.recorded_passes(monkeypatch)
        sums = pig_sample_with_tilts(params, np.full(4000, tilt), cfg,
                                     make_rng(copies), copies=copies)
        self.assert_sized_retries(calls, copies, tilt)
        tail = _pig_tail_mean(params, cfg)
        for s in (0.3, 1.0, 3.0):
            t = np.sqrt(s / (copies * _pig_mean(params, cfg)))
            one = pig_laplace_product(params, t, 200) * np.exp(-t * t * tail)
            want = one**copies
            mc, se = mc_transform(sums, t)
            assert abs(mc - want) <= 4 * se

    @pytest.mark.parametrize("copies, tilt", GROUP_CASES)
    def test_moments_match_summed_single_draws(self, copies, tilt, monkeypatch):
        params, cfg = PigParams(), PigSamplerConfig(trunc_terms=24)
        n = 1500
        calls = self.recorded_passes(monkeypatch)
        grouped = pig_sample_with_tilts(params, np.full(n, tilt), cfg,
                                        make_rng(11), copies=copies)
        self.assert_sized_retries(calls, copies, tilt)
        single = _gig_rvs_row_sums(_ladder_deltas(params, 24),
                                   np.full(n * copies, tilt), make_rng(12))
        single = (single.reshape(n, copies).sum(axis=1)
                  + copies * _pig_tail_mean(PigParams(c=tilt), cfg))
        if tilt == 0.0:  # infinite variance: compare the laws instead
            assert stats.ks_2samp(grouped, single).pvalue > 1e-3
            return
        for a, b in ((grouped, single),
                     ((grouped - grouped.mean())**2, (single - single.mean())**2)):
            se = np.hypot(a.std(ddof=1), b.std(ddof=1)) / np.sqrt(n)
            assert abs(a.mean() - b.mean()) <= 4 * se

    @staticmethod
    def searchsorted_proposals(guide_at, scale, groups, rng):
        """The reference `pig._group_proposals`: the order drawn by one
        `searchsorted` of each size's cdf."""
        if guide_at is None:
            x = rng.standard_gamma(1.5, size=scale.size)
        else:
            u = rng.random(scale.size)
            size = guide_at // (pig._GUIDE + 1)
            shape = np.full(scale.size, 1.5)
            for i, g in enumerate(groups.sizes.tolist()):
                at = size == i
                if g > 1 and at.any():
                    cdf = pig._order_cdf(g)
                    shape[at] = cdf.searchsorted(u[at], side="right") + 0.5
            x = rng.standard_gamma(shape)
        return np.divide(scale, x, out=x)

    @pytest.mark.parametrize("tilts, copies", CHAIN_CALLS)
    def test_outputs_match_the_searchsorted_reference(self, tilts, copies, monkeypatch):
        # same draws and same generator state after them, pass for pass
        params, cfg = PigParams(), PigSamplerConfig(trunc_terms=200)

        def run():
            rng = make_rng(copies)
            draws = [pig_sample_with_tilts(params, tilts, cfg, rng, copies=copies)
                     for _ in range(20)]
            return np.array(draws), rng.bit_generator.state

        got, got_state = run()
        monkeypatch.setattr(pig, "_group_proposals", self.searchsorted_proposals)
        want, want_state = run()
        assert np.array_equal(got, want) and got_state == want_state

    def test_retry_passes_sized_by_pending(self, monkeypatch):
        # a stand-in proposal accepts the first proposal of as many pending
        # entries as the schedule asks and rejects the rest (x = inf), so
        # the pass with P pending must draw P min(4, ceil(B / P)) proposals
        pending = [2000, 1500, 700, 400, 341, 65, 64, 3, 0]
        sizes = []

        def proposals(guide_at, scale, groups, rng):
            now = pending[len(sizes)]
            sizes.append(scale.size)
            each = scale.size // now
            x = np.full(scale.size, np.inf)
            x[:(now - pending[len(sizes)]) * each:each] = 0.0  # accepted
            return x

        monkeypatch.setattr(pig, "_group_proposals", proposals)
        n = pending[0]
        out = pig._grouped_rejection(None, np.ones(n), np.full(n, -1.0),
                                     pig._group_table(2), make_rng(0))
        assert np.array_equal(out, np.zeros(n))
        budget, most = pig._RETRY_BUDGET, pig._RETRY_PROPOSALS
        assert sizes == [n] + [p * min(most, -(-budget // p)) for p in pending[1:-1]]
        # up to 64 pending keep 4 proposals each
        assert [s // p for s, p in zip(sizes[1:], pending[1:])] == [1, 2, 3, 4, 4, 4, 4]

    @staticmethod
    def recorded_builds(monkeypatch, slots):
        """A fresh layout cache of `slots` layouts, and a list that gets
        every layout built."""
        built = []
        build = pig._entry_layout

        def record(*args):
            built.append(build(*args))
            return built[-1]

        cache = pig._LayoutCache(slots, pig._LAYOUT_ENTRIES)
        monkeypatch.setattr(pig, "_entry_layout", record)
        monkeypatch.setattr(pig, "_LAYOUTS", cache)
        return cache, built

    def test_layout_cache_is_invisible(self, monkeypatch):
        # a cold cache and a warm one give equal draws and leave the
        # generator in the same state, over calls whose layouts repeat out
        # of order
        params, cfg = PigParams(), PigSamplerConfig(trunc_terms=200)
        # two pairs of calls whose layouts differ in one part of the key:
        # tilts 1.39 and 1.0 in their columns only, and two tilts with omega
        # 0.1% above and below the split at term 9 in their cells within
        # the split only
        delta_9 = pig._ladder(1.0, 200, 201)[0][8]
        pairs = [(np.array([1.39]), 61), (np.array([1.0]), 61),
                 (np.array([_OMEGA_SPLIT * 1.001 / delta_9]), 201),
                 (np.array([_OMEGA_SPLIT * 0.999 / delta_9]), 201)]
        for (a, copies), (b, _) in (pairs[:2], pairs[2:]):
            ladder = pig._ladder(1.0, 200, copies)
            same_col = np.array_equal(*(pig._columns(t, ladder) for t in (a, b)))
            same_keep = np.array_equal(*(t[:, None] <= ladder[1] for t in (a, b)))
            assert same_col != same_keep
        calls = CHAIN_CALLS + pairs[1:]  # 1.39 at 61 copies is a chain call
        order = [*range(len(calls))] * 2
        order += make_rng(9).permutation(order).tolist()

        def run(slots):
            _, built = self.recorded_builds(monkeypatch, slots)
            rng = make_rng(12)
            draws = []
            for i in order:
                tilts, copies = calls[i]
                draws.append(pig_sample_with_tilts(params, tilts, cfg, rng,
                                                   copies=copies))
            return draws, rng.bit_generator.state, len(built)

        warm, warm_state, warm_builds = run(pig._LAYOUT_SLOTS)
        cold, cold_state, cold_builds = run(0)
        assert all(np.array_equal(a, b) for a, b in zip(warm, cold))
        assert warm_state == cold_state
        assert warm_builds == len(calls) and cold_builds == len(order)

    def test_layout_cache_bounds(self, monkeypatch):
        cache, _ = self.recorded_builds(monkeypatch, pig._LAYOUT_SLOTS)
        cfg = PigSamplerConfig(trunc_terms=20)
        for rows in range(1, 2 * pig._LAYOUT_SLOTS):  # a layout per row count
            pig_sample_with_tilts(PigParams(), np.full(rows, 0.5), cfg,
                                  make_rng(rows), copies=3)
            assert len(cache) == min(rows, pig._LAYOUT_SLOTS)
        # above the per-layout cap: more cells than it (2,000 draws at 1000
        # terms), or fewer cells but more entries (the terms above the split,
        # of 1000 single copies each)
        cache, built = self.recorded_builds(monkeypatch, pig._LAYOUT_SLOTS)
        pig_sample_with_tilts(PigParams(), np.full(2000, 0.5),
                              PigSamplerConfig(trunc_terms=1000), make_rng(1))
        pig_sample_with_tilts(PigParams(), [27.0], PigSamplerConfig(),
                              make_rng(2), copies=1000)
        assert len(built) == 3 and len(cache) == 0
        assert min(layout.row.size for layout in built) > pig._LAYOUT_ENTRIES

    @pytest.mark.parametrize("copies", (7, 40, 300))  # over 256: no whole groups
    def test_shape_determinism_and_domain(self, copies):
        params, cfg = PigParams(), PigSamplerConfig(trunc_terms=50)
        tilts = np.array([[0.0, 1.0], [3.0, 40.0]])
        a = pig_sample_with_tilts(params, tilts, cfg, make_rng(4), copies=copies)
        assert a.shape == tilts.shape and np.all(a > 0.0)
        assert np.array_equal(a, pig_sample_with_tilts(params, tilts, cfg,
                                                       make_rng(4), copies=copies))
        for bad in (0, 2.5, 6.0):
            with pytest.raises(ValueError, match="copies"):
                pig_sample_with_tilts(params, tilts, cfg, make_rng(4), copies=bad)


@given(st.floats(min_value=0.0, max_value=6.0),
       st.floats(min_value=0.0, max_value=4.0))
def test_closed_form_bounds_property(c, t):
    val = pig_laplace_closed(PigParams(c=c), t)
    assert 0.0 < val <= 1.0


@given(st.floats(min_value=0.05, max_value=4.0),
       st.floats(min_value=0.05, max_value=3.0))
def test_closed_vs_truncated_product_property(c, t):
    params = PigParams(c=c)
    closed = pig_laplace_closed(params, t)
    product = pig_laplace_product(params, t, 20_000)
    assert product == pytest.approx(closed, abs=2e-3)


@given(st.integers(min_value=1, max_value=200),
       st.floats(min_value=0.0, max_value=8.0))
def test_term_mean_decreases_in_tilt_property(k, c):
    lo = _gig_term_mean(PigParams(c=c), k)
    hi = _gig_term_mean(PigParams(c=c + 0.5), k)
    assert hi < lo or lo == pytest.approx(hi)
