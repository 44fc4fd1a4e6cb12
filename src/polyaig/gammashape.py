"""Gibbs sampler for the gamma shape parameter under a conjugate-style prior.

Observations y_1..y_n are Gamma(alpha, beta) with known rate beta; the prior
p(alpha | a, b, c) is proportional to a^(alpha-1) beta^(c alpha) / Gamma(alpha)^b
with integer b >= 0. The posterior collapses to

    p(alpha | y) proportional to (beta'_y)^alpha / Gamma(alpha)^b',

with b' = b + n and log beta'_y = log a + sum log y_i + (c + n) log beta,
all kept in log scale. Writing alpha~ = alpha - 1 and expanding each of the
b' reciprocal gamma factors as a normal scale mixture over P-IG((1,2,...), 0)
auxiliaries gives a two-block sampler: w_j | alpha~ are tilted P-IG draws and
alpha~ | w is a truncated normal on (-1, inf). The alpha~ update reads only
sum_j w_j, and all b' auxiliaries share one tilt, so the chain keeps that
total and draws it in one call (`pig_sample_with_tilts(..., copies=b')`).

The mixture identity holds for alpha >= 1 only, and the update is wrong
where the posterior has mass below 1: at n = 60, Gamma(0.4, 1) data give a
chain mean of 0.015 against the quadrature oracle's 0.389, and Gamma(0.8, 1)
data 0.637 against 0.771. Such fits are unusable until the exact alpha
kernel (ROADMAP item 2) replaces this update.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .chain import sample_chain
from .dirichlet import (_INTEGER_LADDER, _SQRT2, check_grid, normalize_on_grid,
                        posterior_grid)
from .pig import pig_sample_with_tilts
from .rng import make_rng, truncated_normal_sample
from .special import EULER_GAMMA, log_gamma


@dataclass(frozen=True)
class GammaShapePrior:
    """Hyperparameters (a, b, c) plus the known rate beta.

    b must be a nonnegative integer so that b' = b + n counts the P-IG
    auxiliaries.
    """

    a: float = 1.0
    b: int = 1
    c: float = 0.0
    beta: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.a) and self.a > 0):
            raise ValueError("a must be finite and > 0")
        if not (isinstance(self.b, (int, np.integer)) and self.b >= 0):
            raise ValueError("b must be a nonnegative integer")
        if not np.isfinite(self.c):
            raise ValueError("c must be finite")
        if not (np.isfinite(self.beta) and self.beta > 0):
            raise ValueError("beta must be finite and > 0")


@dataclass(frozen=True)
class ShapeHyper:
    """Updated hyperparameters of the collapsed posterior, in log scale."""

    log_a: float        # log a + sum_i log y_i
    b: int              # b + n
    c: float            # c + n
    log_beta_y: float   # log_a + c * log beta

    def __post_init__(self):
        if self.b < 1:
            raise ValueError("updated b must be >= 1")
        if not (np.isfinite(self.log_a) and np.isfinite(self.log_beta_y)):
            raise ValueError("log-scale hyperparameters must be finite")


@dataclass
class GammaShapeChainState:
    alpha_tilde: float      # alpha - 1, > -1
    w: np.ndarray           # (1,) total of the b' positive auxiliaries

    def validate(self):
        if not self.alpha_tilde > -1.0:
            raise ValueError("alpha_tilde must exceed -1")
        if np.any(self.w <= 0):
            raise ValueError("auxiliaries must be positive")

    def draw(self):
        return self.alpha_tilde + 1.0


def shape_hyper(y, prior):
    """Fold the data into the prior, entirely in log domain."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("y must be a nonempty vector")
    if not np.all(np.isfinite(y)) or np.any(y <= 0):
        raise ValueError("all observations must be finite and > 0")
    n = y.size
    # sorted before summing so that permutations of y give a bit-identical sum
    log_a = float(np.log(prior.a) + np.sort(np.log(y)).sum())
    c = float(prior.c + n)
    return ShapeHyper(
        log_a=log_a,
        b=int(prior.b + n),
        c=c,
        log_beta_y=float(log_a + c * np.log(prior.beta)),
    )


def update_w_shape(state, hyper, pig_config, rng):
    """Redraw the total of all b' auxiliaries, w_j ~ P-IG(d, sqrt(2) |alpha~|),
    as one draw of their sum: shape (1,)."""
    tilt = _SQRT2 * abs(state.alpha_tilde)
    return pig_sample_with_tilts(
        _INTEGER_LADDER, np.full(1, tilt), pig_config, rng, copies=hyper.b)


def update_alpha_shape(state, hyper, rng):
    """alpha~ | w ~ N(mu, sigma^2) restricted to alpha~ > -1.

    mu = (EULER_GAMMA * b' + log beta'_y) / (2 sum w_j), sigma^2 = 1/(2 sum w_j),
    with `state.w` holding sum_j w_j.
    """
    total_w = float(state.w.sum())
    if not total_w > 0:
        raise ValueError("sum of auxiliaries must be positive")
    mean = (EULER_GAMMA * hyper.b + hyper.log_beta_y) / (2.0 * total_w)
    return float(truncated_normal_sample(np.full(1, mean), 1.0 / (2.0 * total_w),
                                         -1.0, rng)[0])


def run_shape_chain(y, prior, config, rng=None):
    """Posterior draws of the shape alpha = alpha~ + 1.

    Starts at the moment-matched alpha~ = max(mean(y) * beta - 1, -0.5) and
    alternates the w and alpha~ updates.
    """
    hyper = shape_hyper(y, prior)
    if rng is None:
        rng = make_rng(config.seed)
    y = np.asarray(y, dtype=float)
    state = GammaShapeChainState(
        alpha_tilde=float(max(y.mean() * prior.beta - 1.0, -0.5)),
        w=np.empty(1),
    )
    state.w = update_w_shape(state, hyper, config.pig_config, rng)

    def sweep(state):
        state.w = update_w_shape(state, hyper, config.pig_config, rng)
        state.alpha_tilde = update_alpha_shape(state, hyper, rng)

    meta = {
        "model": "gamma-shape",
        "prior": {"a": prior.a, "b": prior.b, "c": prior.c, "beta": prior.beta},
        "n_obs": int(y.size),
    }
    return sample_chain(sweep, state, config, ["alpha"], meta)


# ---------------------------------------------------------------------------
# Quadrature oracle
# ---------------------------------------------------------------------------

def _log_post(hyper, grid):
    return grid * hyper.log_beta_y - hyper.b * log_gamma(grid)


def shape_posterior_quadrature(y, prior, grid):
    """Trapezoid-normalized exact posterior density of alpha on the grid.

    exp(alpha * log beta'_y - b' * lgamma(alpha)); refuses coarse grids
    (adjacent log jump > 0.5) and grids whose endpoint carries mass.
    """
    grid = check_grid(grid)
    return normalize_on_grid(grid, _log_post(shape_hyper(y, prior), grid))


def shape_posterior_grid(y, prior):
    """`posterior_grid` of the shape posterior, which
    `shape_posterior_quadrature` accepts."""
    return posterior_grid(partial(_log_post, shape_hyper(y, prior)))
