import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import logsumexp

from bessel_oracle import log_bessel_k
from polyaig.special import EULER_GAMMA, digamma, log_gamma

RECURRENCE_GRID = (0.1, 0.5, 1.3, 7.7, 123.4)


def digamma_series_oracle(x, terms=200_000):
    """psi(x) from the recurrence psi(x) = psi(x+N) - sum 1/(x+k) with the
    asymptotic expansion at the shifted argument."""
    shifted = x + terms
    tail = np.log(shifted) - 1.0 / (2 * shifted) - 1.0 / (12 * shifted**2)
    return tail - np.sum(1.0 / (x + np.arange(terms)))


class TestLogGamma:
    def test_known_values(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
        assert log_gamma(4.0) == pytest.approx(np.log(6.0), rel=1e-14)
        assert log_gamma(0.5) == pytest.approx(0.5 * np.log(np.pi), rel=1e-14)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            log_gamma(bad)

    @pytest.mark.parametrize("x", RECURRENCE_GRID)
    def test_recurrence(self, x):
        assert abs(log_gamma(x + 1.0) - log_gamma(x) - np.log(x)) <= 1e-12

    def test_extreme_arguments_stay_accurate(self):
        # Stirling reference at 1e6; ratio identity near the small end.
        x = 1e6
        stirling = (x - 0.5) * np.log(x) - x + 0.5 * np.log(2 * np.pi) \
            + 1.0 / (12 * x)
        assert log_gamma(x) == pytest.approx(stirling, rel=1e-12)
        tiny = 1e-8
        assert log_gamma(tiny) == pytest.approx(
            log_gamma(tiny + 1.0) - np.log(tiny), rel=1e-12)


class TestDigamma:
    def test_at_one_matches_euler_gamma(self):
        assert digamma(1.0) == pytest.approx(-0.5772156649, abs=1e-9)
        assert abs(EULER_GAMMA + digamma(1.0)) <= 1e-14

    def test_at_two(self):
        assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-12)

    def test_at_half_vs_series_oracle(self):
        # frozen from the oracle below: -EULER_GAMMA - 2 ln 2
        frozen = -1.9635100260214235
        assert digamma_series_oracle(0.5) == pytest.approx(frozen, abs=1e-9)
        assert digamma(0.5) == pytest.approx(frozen, abs=1e-10)

    @pytest.mark.parametrize("x", RECURRENCE_GRID)
    def test_recurrence(self, x):
        assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) <= 1e-10

    def test_domain(self):
        with pytest.raises(ValueError):
            digamma(0.0)
        with pytest.raises(ValueError):
            digamma(-3.0)


class TestLogBesselK:
    """The test-side log K oracle behind the GIG(-3/2) closed-mean checks."""

    def test_half_order_closed_form(self):
        assert log_bessel_k(0.5, 1.0) == pytest.approx(
            0.5 * np.log(np.pi / 2.0) - 1.0, rel=1e-12)

    def test_three_halves_closed_form(self):
        assert log_bessel_k(1.5, 1.0) == pytest.approx(
            np.log(2.0) + 0.5 * np.log(np.pi / 2.0) - 1.0, rel=1e-12)

    def test_order_symmetry(self):
        assert log_bessel_k(-0.5, 2.0) == log_bessel_k(0.5, 2.0)
        assert log_bessel_k(-3.2, 0.7) == pytest.approx(
            log_bessel_k(3.2, 0.7), rel=1e-14)

    @pytest.mark.parametrize("x", (1e-5, 0.02, 1.0, 30.0, 900.0))
    @pytest.mark.parametrize("order", (0.0, 0.5, 1.0, 2.5, 5.0))
    def test_recurrence_in_log_domain(self, order, x):
        # K_{v+1}(x) = K_{v-1}(x) + (2v/x) K_v(x), compared via log-sum-exp
        lhs = log_bessel_k(order + 1.0, x)
        low = log_bessel_k(order - 1.0, x)
        mid = log_bessel_k(order, x)
        if order == 0.0:
            rhs = low  # the 2v/x term vanishes
        else:
            rhs = logsumexp([low, mid + np.log(2.0 * order / x)])
        assert abs(np.expm1(lhs - rhs)) <= 1e-8

    @pytest.mark.parametrize("x", (0.05, 1.0, 12.0, 400.0))
    def test_five_halves_closed_form(self, x):
        closed = 0.5 * np.log(np.pi / (2.0 * x)) - x + np.log1p(
            3.0 / x + 3.0 / (x * x))
        assert log_bessel_k(2.5, x) == pytest.approx(closed, rel=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            log_bessel_k(0.5, 0.0)
        with pytest.raises(ValueError):
            log_bessel_k(0.5, -1.0)


@given(st.floats(min_value=1e-3, max_value=1e3))
def test_log_gamma_recurrence_property(x):
    assert abs(log_gamma(x + 1.0) - log_gamma(x) - np.log(x)) <= 1e-11


@given(st.floats(min_value=1e-3, max_value=1e3))
def test_digamma_recurrence_property(x):
    assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) <= 1e-9


@given(st.floats(min_value=0.05, max_value=800.0),
       st.floats(min_value=-5.0, max_value=5.0))
def test_bessel_symmetry_property(x, order):
    assert log_bessel_k(order, x) == pytest.approx(
        log_bessel_k(-order, x), rel=1e-12, abs=1e-12)
