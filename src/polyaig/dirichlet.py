"""Gibbs samplers for Dirichlet concentration vectors in multinomial-Dirichlet
models, plus the exact quadrature oracles used to validate them.

Model: alpha_k ~ N(0, tau_k^2) truncated to alpha_k > 0 (independent across
categories); p_m | alpha ~ Dirichlet(alpha) per unit; n_m | p_m multinomial.

The sampler alternates the conjugate simplex update
p_m | alpha, n_m ~ Dirichlet(n_m + alpha) with a parameter-expanded draw of
alpha | p. The expansion rewrites the Dirichlet prior density of the p draws:
each Gamma(sum_k alpha_k) becomes a gamma integral (auxiliary eta_m), and each
reciprocal gamma factor uses the Weierstrass-product identity

    1 / Gamma(a) = a * exp(EULER_GAMMA * a) * E[exp(-a^2 w)],
    w ~ P-IG((1, 2, 3, ...), 0),   valid for every a > 0,

so the auxiliaries w_mk are tilted P-IG draws and, given one slice variable
per category for the leading ``a`` factor, each alpha_k update collapses to a
truncated normal. Every identity holds on the whole support, so the chain
targets the exact posterior; the quadrature oracle below provides the
independent ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import sample_chain
from .pig import PigParams, pig_sample_with_tilts
from .rng import dirichlet_log_sample, make_rng, truncated_normal_sample
from .special import EULER_GAMMA, log_gamma

_SQRT2 = np.sqrt(2.0)
_INTEGER_LADDER = PigParams.integer()

# Unnormalized log density of the grid endpoint must sit this far below the
# maximum for the quadrature to accept the grid (tail cutoff 1e-10).
_TAIL_LOG_GAP = np.log(1e10)
_MAX_LOG_JUMP = 0.5


@dataclass
class CountMatrix:
    """M x K nonnegative count rows with labels and cached row sums."""

    counts: np.ndarray
    unit_labels: list
    category_labels: list
    row_sums: np.ndarray

    @classmethod
    def from_array(cls, counts, unit_labels=None, category_labels=None):
        counts = np.asarray(counts)
        if counts.ndim != 2:
            raise ValueError("counts must be a 2-D array")
        if not np.issubdtype(counts.dtype, np.integer):
            if not np.all(counts == np.floor(counts)):
                raise ValueError("counts must be integers")
            counts = counts.astype(np.int64)
        m, k = counts.shape
        if unit_labels is None:
            unit_labels = [f"unit_{i+1}" for i in range(m)]
        if category_labels is None:
            category_labels = [f"cat_{j+1}" for j in range(k)]
        return cls(counts.astype(np.int64), list(unit_labels),
                   list(category_labels), counts.sum(axis=1).astype(np.int64))

    def __post_init__(self):
        if self.counts.ndim != 2:
            raise ValueError("counts must be 2-D")
        if np.any(self.counts < 0):
            raise ValueError("counts must be nonnegative")
        if len(self.unit_labels) != self.counts.shape[0]:
            raise ValueError("unit labels must match rows")
        if len(self.category_labels) != self.counts.shape[1]:
            raise ValueError("category labels must match columns")
        if not np.array_equal(self.row_sums, self.counts.sum(axis=1)):
            raise ValueError("cached row sums disagree with counts")
        if self.counts.shape[0] and np.any(self.row_sums < 1):
            bad = self.unit_labels[int(np.argmin(self.row_sums))]
            raise ValueError(f"unit {bad!r} has an all-zero count row")

    @property
    def n_units(self):
        return self.counts.shape[0]

    @property
    def n_categories(self):
        return self.counts.shape[1]


@dataclass(frozen=True)
class AlphaPrior:
    """Truncated-normal prior alpha_k ~ N(0, tau^2) on alpha_k > 0.

    `tau` is a scalar shared across categories or a per-category tuple.
    The implied prior mean is sqrt(2/pi) * tau.
    """

    tau: float | tuple = 1.0

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.tau, dtype=float))
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
            raise ValueError("tau must be finite and > 0")

    @classmethod
    def for_categories(cls, k):
        """Default choice: prior mean 1/K, i.e. tau = sqrt(pi/2)/K."""
        return cls(tau=float(np.sqrt(np.pi / 2.0) / k))

    @classmethod
    def from_mean(cls, mean_alpha):
        if mean_alpha <= 0:
            raise ValueError("mean_alpha must be > 0")
        return cls(tau=float(mean_alpha * np.sqrt(np.pi / 2.0)))

    def tau_vector(self, k):
        arr = np.atleast_1d(np.asarray(self.tau, dtype=float))
        if arr.size == 1:
            return np.full(k, float(arr[0]))
        if arr.size != k:
            raise ValueError(f"per-category tau has length {arr.size}, need {k}")
        return arr.copy()

    def scalar_tau(self):
        arr = np.atleast_1d(np.asarray(self.tau, dtype=float))
        if arr.size != 1 and np.ptp(arr) != 0.0:
            raise ValueError("this operation needs a single shared tau")
        return float(arr[0])

    def mean_vector(self, k):
        return np.sqrt(2.0 / np.pi) * self.tau_vector(k)


@dataclass
class DirichletChainState:
    """Current (alpha, log_p, w, eta) of the concentration Gibbs sampler."""

    alpha: np.ndarray       # (K,); a float in the shared-alpha chain
    log_p: np.ndarray       # (M, K)
    w: np.ndarray           # (M, K); their (1,) total in the shared-alpha chain
    eta: np.ndarray         # (M,)

    def validate(self):
        if np.any(self.alpha <= 0) or np.any(self.eta <= 0) or np.any(self.w <= 0):
            raise ValueError("state positivity violated")
        row_sums = np.exp(self.log_p).sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > 1e-10):
            raise ValueError("log_p rows must exponentiate to the simplex")

    def draw(self):
        return self.alpha


# ---------------------------------------------------------------------------
# Gibbs updates
# ---------------------------------------------------------------------------

def update_eta(state, rng):
    """eta_m | alpha ~ Gamma(sum_k alpha_k, 1), independently per unit."""
    shape = float(state.alpha.sum())
    return rng.standard_gamma(shape, size=state.eta.shape[0])


def update_w(state, pig_config, rng):
    """w_mk | alpha ~ P-IG(d, sqrt(2) * alpha_k), d_k = k."""
    m = state.w.shape[0]
    tilts = np.broadcast_to(_SQRT2 * state.alpha, (m, state.alpha.size))
    return pig_sample_with_tilts(_INTEGER_LADDER, tilts, pig_config, rng)


def update_p(state, counts, rng):
    """p_m | alpha, n_m ~ Dirichlet(n_m + alpha) for every unit in one
    matrix draw, stored in log scale."""
    return dirichlet_log_sample(counts.counts + state.alpha, rng)[1]


def alpha_coefficients(w, log_p, eta, prior):
    """Quadratic/linear coefficients (a_k, b_k) of the alpha_k update.

    The conditional is proportional to
    alpha^M exp(-a alpha^2 + b alpha) on alpha > 0 with
    a_k = sum_m w_mk + 1/(2 tau_k^2) and
    b_k = sum_m log eta_m + M * EULER_GAMMA + sum_m log p_mk.
    """
    m, k = w.shape
    if m == 0:
        raise ValueError("alpha update needs at least one unit")
    tau = prior.tau_vector(k)
    a = w.sum(axis=0) + 1.0 / (2.0 * tau * tau)
    b = np.log(eta).sum() + m * EULER_GAMMA + log_p.sum(axis=0)
    return a, b


def update_alpha(state, prior, rng):
    """alpha_k | w, eta, p via one slice variable and a truncated normal.

    The leading alpha^M factor is handled by a slice bound
    alpha > alpha_old * V^(1/M); the remainder is the TN(b/2a, 1/2a) kernel,
    drawn for every category in one call.
    """
    m, k = state.w.shape
    a, b = alpha_coefficients(state.w, state.log_p, state.eta, prior)
    lower = state.alpha * rng.random(k) ** (1.0 / m)
    return truncated_normal_sample(b / (2.0 * a), 1.0 / (2.0 * a),
                                   np.maximum(lower, 0.0), rng)


def gibbs_sweep(state, counts, prior, pig_config, rng):
    """One systematic scan: eta, then w, then p, then alpha."""
    state.eta = update_eta(state, rng)
    state.w = update_w(state, pig_config, rng)
    state.log_p = update_p(state, counts, rng)
    state.alpha = update_alpha(state, prior, rng)
    return state


def _smoothed_log_props(counts):
    q = counts.counts.astype(float)
    q[q == 0.0] = 0.5
    return np.log(q / q.sum(axis=1, keepdims=True))


def initial_state(counts, prior, pig_config, rng):
    """Deterministic-ish start: alpha at the prior mean, p at smoothed
    empirical proportions, then one w pass and one eta pass."""
    k = counts.n_categories
    state = DirichletChainState(
        alpha=prior.mean_vector(k),
        log_p=_smoothed_log_props(counts),
        w=np.empty((counts.n_units, k)),
        eta=np.empty(counts.n_units),
    )
    state.w = update_w(state, pig_config, rng)
    state.eta = update_eta(state, rng)
    return state


def run_chain(counts, prior, config, rng=None):
    """Posterior draws of the concentration vector for the full model.

    `rng` defaults to a fresh stream seeded by the config; parallel chains
    pass their own child streams.
    """
    if counts.n_units == 0:
        raise ValueError("run_chain needs at least one unit of counts")
    if rng is None:
        rng = make_rng(config.seed)
    state = initial_state(counts, prior, config.pig_config, rng)
    names = [f"alpha_{j+1}" for j in range(counts.n_categories)]
    meta = {"model": "dirichlet-concentration",
            "categories": list(counts.category_labels)}
    return sample_chain(
        lambda st: gibbs_sweep(st, counts, prior, config.pig_config, rng),
        state, config, names, meta)


def run_chain_homogeneous(counts, prior, config, rng=None):
    """Posterior draws for the shared-alpha model (alpha_1 = ... = alpha_K).

    Same augmentation with a scalar alpha: eta_m ~ Gamma(K alpha, 1),
    w_mk ~ P-IG(d, sqrt(2) alpha), slice exponent M*K, and a single
    truncated-normal update. The alpha update reads only sum_mk w_mk, so
    the M*K auxiliaries, which share one tilt, are drawn as that total. Its
    eta and alpha steps use K * alpha, which is not bit-equal to the sum
    over K that `update_eta` and `update_alpha` take.
    """
    if counts.n_units == 0:
        raise ValueError("run_chain_homogeneous needs at least one unit")
    tau = prior.scalar_tau()
    m, k = counts.n_units, counts.n_categories
    if rng is None:
        rng = make_rng(config.seed)

    def draw_w(alpha):  # the total of the M*K auxiliaries, shape (1,)
        return pig_sample_with_tilts(_INTEGER_LADDER, np.full(1, _SQRT2 * alpha),
                                     config.pig_config, rng, copies=m * k)

    def sweep(state):
        alpha = state.alpha
        state.eta = rng.standard_gamma(k * alpha, size=m)
        state.w = draw_w(alpha)
        state.log_p = update_p(state, counts, rng)
        a = state.w.sum() + 1.0 / (2.0 * tau * tau)
        b = k * np.log(state.eta).sum() + m * k * EULER_GAMMA + state.log_p.sum()
        lower = alpha * rng.random() ** (1.0 / (m * k))
        state.alpha = truncated_normal_sample(
            b / (2.0 * a), 1.0 / (2.0 * a), max(lower, 0.0), rng)

    alpha = float(np.sqrt(2.0 / np.pi) * tau)
    # the first sweep redraws w and eta; these start-up draws hold their
    # place in the random stream
    w = draw_w(alpha)
    state = DirichletChainState(alpha=alpha, log_p=_smoothed_log_props(counts),
                                w=w, eta=rng.standard_gamma(k * alpha, size=m))
    meta = {"model": "dirichlet-concentration-homogeneous",
            "categories": list(counts.category_labels)}
    return sample_chain(sweep, state, config, ["alpha"], meta)


# ---------------------------------------------------------------------------
# Quadrature oracle and posterior predictive
# ---------------------------------------------------------------------------

def check_grid(grid):
    """The grid as a float array; it must be positive, strictly increasing
    and hold at least 3 points."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 3:
        raise ValueError("grid must be a 1-D array with at least 3 points")
    if grid[0] <= 0 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing and positive")
    return grid


def normalize_on_grid(grid, log_f):
    """exp(log_f) normalized by the trapezoid rule on `grid`. Refuses grids
    with an adjacent log-density jump above `_MAX_LOG_JUMP` or an endpoint
    within `_TAIL_LOG_GAP` of the maximum."""
    jumps = np.abs(np.diff(log_f))
    if np.any(jumps > _MAX_LOG_JUMP):
        i = int(np.argmax(jumps))
        raise ValueError(
            f"grid too coarse: log-density jump {jumps[i]:.3f} > {_MAX_LOG_JUMP} "
            f"between alpha={grid[i]:.6g} and alpha={grid[i+1]:.6g}")
    log_max = log_f.max()
    if log_f[-1] > log_max - _TAIL_LOG_GAP:
        raise ValueError(
            "grid endpoint carries non-negligible mass; extend alpha_max "
            f"(log-density gap {log_max - log_f[-1]:.2f} < {_TAIL_LOG_GAP:.2f})")
    f = np.exp(log_f - log_max)
    return f / np.trapezoid(f, grid)


def _homogeneous_log_post(counts, tau, grid):
    k = counts.n_categories
    log_f = -0.5 * grid**2 / tau**2
    for i in range(counts.n_units):
        n = counts.counts[i]
        log_f = log_f + (
            log_gamma(k * grid) - log_gamma(k * grid + float(n.sum()))
            + sum(log_gamma(nk + grid) - log_gamma(grid) for nk in n)
        )
    return log_f


def quadrature_posterior(counts, prior, grid):
    """Exact (trapezoid-normalized) posterior density of the shared alpha.

    Deterministic oracle for the homogeneous model: exp(sum of marginal log
    likelihoods plus the truncated-normal log prior) on the grid. Refuses
    grids with adjacent log-density jumps above 0.5 or a heavy endpoint.
    """
    grid = check_grid(grid)
    log_f = _homogeneous_log_post(counts, prior.scalar_tau(), grid)
    return normalize_on_grid(grid, log_f)


def homogeneous_posterior_grid(counts, prior, points=20001):
    """Geometric grid wide enough for `quadrature_posterior` to accept."""
    tau = prior.scalar_tau()
    probe = np.geomspace(1e-6, 50.0 * tau + 50.0, 400)
    log_f = _homogeneous_log_post(counts, tau, probe)
    hi = probe[-1]
    while log_f[-1] > log_f.max() - (_TAIL_LOG_GAP + 20.0):
        hi *= 2.0
        probe = np.geomspace(1e-6, hi, 400)
        log_f = _homogeneous_log_post(counts, tau, probe)
    i_max = int(np.argmax(log_f))
    above = np.nonzero(log_f > log_f[i_max] - (_TAIL_LOG_GAP + 25.0))[0]
    hi = probe[min(above[-1] + 1, probe.size - 1)]
    lo = min(probe[above[0]], probe[i_max]) * 1e-3
    return np.geomspace(lo, hi, points)


def grid_mean_sd(grid, density):
    mean = np.trapezoid(grid * density, grid)
    var = np.trapezoid((grid - mean) ** 2 * density, grid)
    return float(mean), float(np.sqrt(var))


def grid_cdf(grid, density):
    """Right-continuous CDF values at the grid points (trapezoid rule)."""
    inc = np.concatenate(
        [[0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * np.diff(grid))])
    return inc / inc[-1]


def quadrature_posterior_k2(counts, prior, grid):
    """Joint posterior density of (alpha_1, alpha_2) for K = 2 on grid x grid.

    Tensor-grid trapezoid oracle for the full (per-category) model; used to
    validate `run_chain` where a low-dimensional exact answer exists.
    """
    if counts.n_categories != 2:
        raise ValueError("this oracle is for K = 2 only")
    grid = check_grid(grid)
    tau = prior.tau_vector(2)
    a1 = grid[:, None]
    a2 = grid[None, :]
    log_f = -0.5 * a1**2 / tau[0] ** 2 - 0.5 * a2**2 / tau[1] ** 2
    for i in range(counts.n_units):
        n1, n2 = (float(v) for v in counts.counts[i])
        tot = a1 + a2
        log_f = log_f + (
            log_gamma(tot) - log_gamma(tot + n1 + n2)
            + log_gamma(n1 + a1) - log_gamma(a1)
            + log_gamma(n2 + a2) - log_gamma(a2)
        )
    f = np.exp(log_f - log_f.max())
    z = np.trapezoid(np.trapezoid(f, grid, axis=1), grid)
    return f / z


def posterior_predictive(samples, draws_per_sample, rng):
    """Simplex draws p* ~ Dirichlet(alpha^(s)), `draws_per_sample` per row,
    grouped by sample in one matrix draw."""
    if samples.size == 0:
        raise ValueError("no posterior samples to predict from")
    if draws_per_sample < 1:
        raise ValueError("draws_per_sample must be >= 1")
    conc = np.repeat(samples.draws, draws_per_sample, axis=0)
    return dirichlet_log_sample(conc, rng)[0]
