"""Gibbs sampler for the gamma shape parameter under a conjugate-style prior.

Observations y_1..y_n are Gamma(alpha, beta) with known rate beta; the prior
p(alpha | a, b, c) is proportional to a^(alpha-1) beta^(c alpha) / Gamma(alpha)^b
with integer b >= 0. The posterior collapses to

    p(alpha | y) proportional to (beta'_y)^alpha / Gamma(alpha)^b',

with b' = b + n and log beta'_y = log a + sum log y_i + (c + n) log beta,
all kept in log scale. Writing alpha~ = alpha - 1 and expanding each of the
b' reciprocal gamma factors as a normal scale mixture over P-IG((1,2,...), 0)
auxiliaries gives a two-block sampler: w_j | alpha~ are tilted P-IG draws and
alpha~ | w is a truncated normal on (-1, inf).

The mixture identity holds for alpha >= 1; for posteriors with substantial
mass below 1 the update is approximate in that region (the quadrature oracle
makes any such gap visible).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .chain import PosteriorSamples
from .pig import PigParams, pig_sample_with_tilts
from .rng import make_rng, truncated_normal_sample
from .special import EULER_GAMMA, digamma, log_gamma

_SQRT2 = np.sqrt(2.0)
_INTEGER_LADDER = PigParams.integer()

_TAIL_LOG_GAP = np.log(1e10)
_MAX_LOG_JUMP = 0.5
# shape_posterior_grid halves its spacing at most this many times
_MAX_GRID_DOUBLINGS = 6


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
    w: np.ndarray           # (b',) positive auxiliaries

    def validate(self):
        if not self.alpha_tilde > -1.0:
            raise ValueError("alpha_tilde must exceed -1")
        if np.any(self.w <= 0):
            raise ValueError("auxiliaries must be positive")


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
    """Redraw all b' auxiliaries: w_j ~ P-IG(d, sqrt(2) |alpha~|)."""
    tilt = _SQRT2 * abs(state.alpha_tilde)
    return pig_sample_with_tilts(
        _INTEGER_LADDER, np.full(hyper.b, tilt), pig_config, rng)


def update_alpha_shape(state, hyper, rng):
    """alpha~ | w ~ N(mu, sigma^2) restricted to alpha~ > -1.

    mu = (EULER_GAMMA * b' + log beta'_y) / (2 sum w_j), sigma^2 = 1/(2 sum w_j).
    """
    total_w = float(state.w.sum())
    if not total_w > 0:
        raise ValueError("sum of auxiliaries must be positive")
    mean = (EULER_GAMMA * hyper.b + hyper.log_beta_y) / (2.0 * total_w)
    return truncated_normal_sample(mean, 1.0 / (2.0 * total_w), -1.0, rng)


def run_shape_chain(y, prior, config, rng=None):
    """Posterior draws of the shape alpha = alpha~ + 1.

    Starts at the moment-matched alpha~ = max(mean(y) * beta - 1, -0.5) and
    alternates the w and alpha~ updates.
    """
    hyper = shape_hyper(y, prior)
    if rng is None:
        rng = make_rng(config.seed)
    t0 = time.perf_counter()
    y = np.asarray(y, dtype=float)
    state = GammaShapeChainState(
        alpha_tilde=float(max(y.mean() * prior.beta - 1.0, -0.5)),
        w=np.empty(hyper.b),
    )
    state.w = update_w_shape(state, hyper, config.pig_config, rng)
    kept = np.empty((config.retained, 1))
    iters = np.empty(config.retained, dtype=np.int64)
    s = 0
    for it in range(1, config.iterations + 1):
        state.w = update_w_shape(state, hyper, config.pig_config, rng)
        state.alpha_tilde = update_alpha_shape(state, hyper, rng)
        if it % 100 == 0:
            state.validate()
        if it > config.burn_in and (it - config.burn_in) % config.thin == 0:
            kept[s, 0] = state.alpha_tilde + 1.0
            iters[s] = it
            s += 1
    meta = {
        "model": "gamma-shape",
        "config": config.echo(),
        "seed": config.seed,
        "prior": {"a": prior.a, "b": prior.b, "c": prior.c, "beta": prior.beta},
        "n_obs": int(y.size),
        "wall_time_s": time.perf_counter() - t0,
    }
    return PosteriorSamples(kept[:s], ["alpha"], iters[:s], meta)


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
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 3:
        raise ValueError("grid must be a 1-D array with at least 3 points")
    if grid[0] <= 0 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing and positive")
    hyper = shape_hyper(y, prior)
    log_f = _log_post(hyper, grid)
    jumps = np.abs(np.diff(log_f))
    if np.any(jumps > _MAX_LOG_JUMP):
        i = int(np.argmax(jumps))
        raise ValueError(
            f"grid too coarse: log-density jump {jumps[i]:.3f} > {_MAX_LOG_JUMP} "
            f"between alpha={grid[i]:.6g} and alpha={grid[i+1]:.6g}")
    log_max = log_f.max()
    if log_f[-1] > log_max - _TAIL_LOG_GAP:
        raise ValueError("grid endpoint carries non-negligible mass; "
                         "extend alpha_max")
    f = np.exp(log_f - log_max)
    return f / np.trapezoid(f, grid)


def shape_posterior_grid(y, prior, points=None):
    """Geometric grid around the posterior mode, wide and fine enough to be
    accepted by `shape_posterior_quadrature`.

    The mode solves digamma(alpha) = log beta'_y / b'; Newton from a crude
    start converges in a handful of steps. The default point count scales
    with b' so the 0.5 log-jump budget holds near the origin; where the
    density is steeper than that (large alpha with large b'), the spacing
    is halved, up to `_MAX_GRID_DOUBLINGS` times, until every adjacent
    log-density jump is within the budget.
    """
    from scipy.special import polygamma

    hyper = shape_hyper(y, prior)
    if points is None:
        points = max(20001, 30 * hyper.b + 1)
    target = hyper.log_beta_y / hyper.b
    mode = max(np.exp(target) if target < 0 else target + 0.5, 1e-3)
    for _ in range(60):
        step = (digamma(mode) - target) / polygamma(1, mode)
        mode = max(mode - step, mode / 10.0)
        if abs(step) < 1e-12 * max(mode, 1.0):
            break
    sd = 1.0 / np.sqrt(hyper.b * polygamma(1, mode))
    hi = mode + 14.0 * sd
    while _log_post(hyper, np.array([hi]))[0] > _log_post(
            hyper, np.array([mode]))[0] - (_TAIL_LOG_GAP + 20.0):
        hi *= 1.5
    lo = max(mode * 1e-4, 1e-8)
    grid = np.geomspace(lo, hi, points)
    for _ in range(_MAX_GRID_DOUBLINGS):
        if np.abs(np.diff(_log_post(hyper, grid))).max() <= _MAX_LOG_JUMP:
            break
        points = 2 * points - 1
        grid = np.geomspace(lo, hi, points)
    return grid
