"""Gibbs samplers for Dirichlet concentration vectors in multinomial-Dirichlet
models, plus the exact quadrature oracles used to validate them.

Model: alpha_k ~ N(0, tau^2) truncated to alpha_k > 0 (independent across
categories, one tau); p_m | alpha ~ Dirichlet(alpha) per unit; n_m | p_m
multinomial.

The sampler alternates the conjugate simplex update
p_m | alpha, n_m ~ Dirichlet(n_m + alpha) with a parameter-expanded draw of
alpha | p. The expansion rewrites the Dirichlet prior density of the p draws:
each Gamma(sum_k alpha_k) becomes a gamma integral (auxiliary eta_m), and each
reciprocal gamma factor uses the Weierstrass-product identity

    1 / Gamma(a) = a * exp(EULER_GAMMA * a) * E[exp(-a^2 w)],
    w ~ P-IG((1, 2, 3, ...), 0),   valid for every a > 0,

so the auxiliaries w_mk are tilted P-IG draws and each alpha has the
log-concave conditional alpha^M' exp(-a alpha^2 + b alpha) on alpha > 0,
the modified-half-normal law, with M' the number of reciprocal gamma
factors it carries. `modified_half_normal_sample` draws it exactly by
rejection: in units of the mode, either of the density's two factors, a
normal or a gamma density, is a hat, and each alpha takes the one its
parameters select, which accepts at least 0.6 of its proposals.
That update reads the auxiliaries only through their sums over the units
and the categories that share one alpha, and those share one tilt, so the
chain keeps the sums and draws each as one
(`pig_sample_with_tilts(..., copies=...)`). The shared-alpha model
(alpha_1 = ... = alpha_K) is the same sweep with one alpha standing for all
K categories: eta_m ~ Gamma(K alpha), one total of the M*K auxiliaries and
M' = M*K. Every identity holds on the whole support, so the chain targets
the exact posterior; the quadrature oracle below provides the independent
ground truth.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import partial

import numpy as np

from .chain import sample_chain
from .pig import PigParams, pig_sample_with_tilts
from .rng import (MAX_REJECTION_PASSES, dirichlet_log_sample, make_rng,
                  rejection_cap_error, truncated_normal_sample)
from .special import EULER_GAMMA, log_gamma

_SQRT2 = np.array(np.sqrt(2.0))  # 0-d: see `pig._tail_start`
_INTEGER_LADDER = PigParams()

# Each pass of the alpha kernel draws _PROPOSALS_PER_PASS proposals per alpha.
_PROPOSALS_PER_PASS = 8

# Unnormalized log density of the grid endpoint must sit this far below the
# maximum for the quadrature to accept the grid (tail cutoff 1e-10).
_TAIL_LOG_GAP = np.log(1e10)
_MAX_LOG_JUMP = 0.5
# posterior_grid never reaches left of _GRID_FLOOR; it lays _GRID_POINTS
# points and halves their spacing at most _MAX_GRID_DOUBLINGS times
_GRID_FLOOR = 1e-9
_GRID_POINTS = 20001
_MAX_GRID_DOUBLINGS = 6


@dataclass
class CountMatrix:
    """M x K nonnegative count rows with labels."""

    counts: np.ndarray
    unit_labels: list
    category_labels: list

    @classmethod
    def from_array(cls, counts, unit_labels=None, category_labels=None):
        counts = np.asarray(counts)
        if counts.ndim != 2:
            raise ValueError("counts must be a 2-D array")
        if not np.issubdtype(counts.dtype, np.integer):
            if not np.all(counts == np.floor(counts)):
                raise ValueError("counts must be integers")
        m, k = counts.shape
        if unit_labels is None:
            unit_labels = [f"unit_{i+1}" for i in range(m)]
        if category_labels is None:
            category_labels = [f"cat_{j+1}" for j in range(k)]
        return cls(counts.astype(np.int64), list(unit_labels), list(category_labels))

    def __post_init__(self):
        if self.counts.ndim != 2:
            raise ValueError("counts must be 2-D")
        if np.any(self.counts < 0):
            raise ValueError("counts must be nonnegative")
        if len(self.unit_labels) != self.counts.shape[0]:
            raise ValueError("unit labels must match rows")
        if len(self.category_labels) != self.counts.shape[1]:
            raise ValueError("category labels must match columns")
        if self.counts.shape[0] and np.any(self.row_sums < 1):
            bad = self.unit_labels[int(np.argmin(self.row_sums))]
            raise ValueError(f"unit {bad!r} has an all-zero count row")

    @property
    def row_sums(self):
        return self.counts.sum(axis=1)

    @property
    def n_units(self):
        return self.counts.shape[0]

    @property
    def n_categories(self):
        return self.counts.shape[1]


@dataclass(frozen=True)
class AlphaPrior:
    """Truncated-normal prior alpha_k ~ N(0, tau^2) on alpha_k > 0, one tau
    shared by every category; its mean is sqrt(2/pi) * tau."""

    tau: float = 1.0

    def __post_init__(self):
        if not (isinstance(self.tau, numbers.Real) and 0.0 < self.tau < np.inf):
            raise ValueError(f"tau must be one finite number > 0, got {self.tau!r}")

    @classmethod
    def for_categories(cls, k):
        """Default choice: prior mean 1/K, i.e. tau = sqrt(pi/2)/K."""
        return cls(tau=float(np.sqrt(np.pi / 2.0) / k))

    @classmethod
    def from_mean(cls, mean_alpha):
        if mean_alpha <= 0:
            raise ValueError("mean_alpha must be > 0")
        return cls(tau=float(mean_alpha * np.sqrt(np.pi / 2.0)))

    @property
    def mean(self):
        return float(np.sqrt(2.0 / np.pi) * self.tau)


@dataclass
class DirichletChainState:
    """Current (alpha, log_p, w, eta) of the concentration Gibbs sampler.

    `alpha` holds one concentration per category, or one shared by all K
    categories; each alpha stands for `per_alpha` = K // alpha.size
    categories, and `w` holds the total of the auxiliaries that share each
    alpha's tilt.
    """

    alpha: np.ndarray       # (K,), or (1,) when shared
    log_p: np.ndarray       # (M, K)
    w: np.ndarray           # (1, alpha.size) auxiliary totals
    eta: np.ndarray         # (M,)

    @property
    def per_alpha(self):
        return self.log_p.shape[1] // self.alpha.size

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
    shape = float(state.alpha.sum()) * state.per_alpha
    return rng.standard_gamma(shape, size=state.log_p.shape[0])


def update_w(state, pig_config, rng):
    """Totals, shape (1, alpha.size), of the auxiliaries
    w_mk | alpha ~ P-IG(d, sqrt(2) * alpha_k), d_k = k, over the units and
    the categories of each alpha."""
    return pig_sample_with_tilts(_INTEGER_LADDER, _SQRT2 * state.alpha[None, :],
                                 pig_config, rng,
                                 copies=state.log_p.shape[0] * state.per_alpha)


def update_p(state, counts, rng):
    """p_m | alpha, n_m ~ Dirichlet(n_m + alpha) for every unit in one
    matrix draw, kept in the log scale `dirichlet_log_sample` draws it in."""
    return dirichlet_log_sample(counts.counts + state.alpha, rng)


def alpha_coefficients(w, log_p, eta, prior):
    """Quadratic/linear coefficients (a_j, b_j) of the update of alpha_j,
    which stands for r = K // w.shape[1] categories.

    The conditional is proportional to alpha^(M r) exp(-a alpha^2 + b alpha)
    on alpha > 0 with a_j = (sum of its w_mk) + 1/(2 tau^2) and b_j = sum
    over its categories k of (sum_m log eta_m + M * EULER_GAMMA + sum_m log p_mk).
    `w` holds the (M, K) auxiliaries or their (1, K) column totals, or the
    (1, 1) total when alpha is shared.
    """
    m, k = log_p.shape
    if m == 0:
        raise ValueError("alpha update needs at least one unit")
    n = w.shape[1]
    a = np.add.reduce(w) + 1.0 / (2.0 * prior.tau * prior.tau)
    b = np.add.reduce(log_p) + (float(np.add.reduce(np.log(eta))) + m * EULER_GAMMA)
    return a, b if n == k else b.reshape(n, -1).sum(axis=1)


def alpha_mode(power, a, b):
    """Mode m of x^power exp(-a x^2 + b x) on x > 0, per entry, and
    g = 2 a m^2. z = m sqrt(2a) is the positive root of z^2 - beta z - power,
    beta = b/sqrt(2a), taken without cancellation; g = z^2."""
    root_2a = np.sqrt(a + a)
    beta = b / root_2a
    z = (2.0 * power / (np.hypot(beta, 2.0 * math.sqrt(power)) + np.abs(beta))
         + np.maximum(beta, 0.0))
    return z / root_2a, z * z


def modified_half_normal_sample(power, a, b, rng):
    """Exact draws, one per entry of the arrays `a` > 0 and `b`, from the
    density proportional to x^power exp(-a x^2 + b x) on x > 0 (power >= 1).

    In units y = x/m of the mode (`alpha_mode`), log f(y) - log f(1) =
    power (log y - y + 1) - g (y - 1)^2/2 with both terms <= 0, so either
    factor alone is a hat. Where g >= power an entry proposes N(1, 1/g) on
    y > 0 and accepts with (y e^(1-y))^power, elsewhere Gamma(power + 1,
    rate power) accepted with e^(-g (y-1)^2/2): at least 0.6 of proposals
    either way (by quadrature over power 1-20000 and g/power 1e-4-1e4).
    Each pass draws the acceptance uniforms, then `_PROPOSALS_PER_PASS`
    gamma proposals per entry, replaced for the normal-hat entries by one
    `truncated_normal_sample` call, and each entry keeps its first accepted
    proposal. A second pass is rare; `MAX_REJECTION_PASSES` bounds the loop.
    """
    mode, g = alpha_mode(power, a, b)
    normal = g >= power
    n_normal, n = np.count_nonzero(normal), a.size
    # exponents of the factor that each entry's hat leaves out
    hat_power = np.where(normal, float(power), 0.0)[:, None]
    hat_g = np.where(normal, 0.0, -0.5 * g)[:, None]
    var = (1.0 / g[normal])[:, None]
    first = np.arange(0, n * _PROPOSALS_PER_PASS, _PROPOSALS_PER_PASS)
    out, done = None, None
    for _ in range(MAX_REJECTION_PASSES):
        u = rng.random((n, _PROPOSALS_PER_PASS))
        y = rng.standard_gamma(power + 1.0, u.shape) / power
        if n_normal:
            y[normal] = truncated_normal_sample(1.0, var, np.zeros((1, u.shape[1])), rng)
        # linear scale: a proposal y = 0 gives 0^power = 0, refused even at
        # an acceptance uniform of 0.0
        ok = u < (y * np.exp(1.0 - y)) ** hat_power * np.exp(hat_g * (y - 1.0) ** 2)
        pick = first + ok.argmax(axis=1)
        draw, hit = y.take(pick), ok.take(pick)
        if out is None:
            out, done = draw, hit
        else:
            new = hit & ~done
            out[new] = draw[new]
            done |= hit
        if np.count_nonzero(done) == n:
            return out * mode
    pending = ~done
    raise rejection_cap_error("modified-half-normal rejection", int(pending.sum()),
                              **{"M'": int(power), "a": a[pending], "b": b[pending]})


def update_alpha(state, prior, rng):
    """alpha | w, eta, p: one exact draw per alpha from its conditional
    alpha^M' exp(-a alpha^2 + b alpha), M' = M * `per_alpha`, with (a, b)
    from `alpha_coefficients`, by `modified_half_normal_sample`: no slice
    variable, and per rejection pass one gamma call, plus one
    `truncated_normal_sample` call if an alpha takes the normal hat."""
    a, b = alpha_coefficients(state.w, state.log_p, state.eta, prior)
    return modified_half_normal_sample(state.log_p.shape[0] * state.per_alpha, a, b, rng)


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


def initial_state(counts, alpha, pig_config, rng):
    """Deterministic-ish start at `alpha`, (K,) or shared (1,): p at
    smoothed empirical proportions, then one w pass and one eta pass."""
    state = DirichletChainState(alpha, _smoothed_log_props(counts), w=None, eta=None)
    state.w = update_w(state, pig_config, rng)
    state.eta = update_eta(state, rng)
    return state


def _run(counts, alpha, prior, config, rng, names, model):
    """`gibbs_sweep` chain from `initial_state` at `alpha`. `rng` defaults to
    a fresh stream seeded by the config; parallel chains pass their own
    child streams."""
    if counts.n_units == 0:
        raise ValueError("the chain needs at least one unit of counts")
    if rng is None:
        rng = make_rng(config.seed)
    state = initial_state(counts, alpha, config.pig_config, rng)
    meta = {"model": model, "categories": list(counts.category_labels)}
    return sample_chain(
        lambda st: gibbs_sweep(st, counts, prior, config.pig_config, rng),
        state, config, names, meta)


def run_chain(counts, prior, config, rng=None):
    """Posterior draws of the concentration vector for the full model,
    started at the prior mean."""
    k = counts.n_categories
    return _run(counts, np.full(k, prior.mean), prior, config, rng,
                [f"alpha_{j+1}" for j in range(k)], "dirichlet-concentration")


def run_chain_homogeneous(counts, prior, config, rng=None):
    """Posterior draws for the shared-alpha model (alpha_1 = ... = alpha_K):
    `gibbs_sweep` with one alpha of shape (1,), started at the prior mean."""
    return _run(counts, np.full(1, prior.mean), prior, config, rng, ["alpha"],
                "dirichlet-concentration-homogeneous")


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


def posterior_grid(log_post):
    """Geometric grid that `normalize_on_grid` accepts for a unimodal
    unnormalized log density `log_post`, vectorized over alpha > 0.

    A 400-point probe of [1e-3, 1e3] widens an end 1000-fold while the log
    density there is within `_TAIL_LOG_GAP` + 20 of the probe's peak; the
    left end stops at `_GRID_FLOOR`. Then the probe is trimmed to the points
    above that level and their neighbours, and laid again, until a trim
    keeps more than half its log width. On that bracket `_GRID_POINTS`
    points halve their spacing until no adjacent log-density jump exceeds
    `_MAX_LOG_JUMP`.
    """
    lo, hi = 1e-3, 1e3
    for _ in range(30):
        probe = np.geomspace(lo, hi, 400)
        log_f = log_post(probe)
        level = log_f.max() - (_TAIL_LOG_GAP + 20.0)
        if log_f[0] >= level and lo > _GRID_FLOOR:
            lo = max(lo * 1e-3, _GRID_FLOOR)
        elif log_f[-1] >= level:
            hi *= 1e3
        else:
            above = np.nonzero(log_f >= level)[0]
            width = np.log(hi / lo)
            lo, hi = probe[max(above[0] - 1, 0)], probe[min(above[-1] + 1, 399)]
            if np.log(hi / lo) > 0.5 * width:
                break
    else:
        raise ValueError(f"no bracket found within 30 probes; last [{lo:.6g}, {hi:.6g}]")
    for doublings in range(_MAX_GRID_DOUBLINGS + 1):
        grid = np.geomspace(lo, hi, (_GRID_POINTS - 1) * 2**doublings + 1)
        jump = np.abs(np.diff(log_post(grid))).max()
        if jump <= _MAX_LOG_JUMP:
            return grid
    raise ValueError(f"grid too coarse after {doublings} doublings: log-density jump "
                     f"{jump:.3f} > {_MAX_LOG_JUMP} with {grid.size} points on "
                     f"[{lo:.6g}, {hi:.6g}]")


def _log_rising_sum(x, counts):
    """Sum over the entries n of `counts` of log Gamma(x + n) - log Gamma(x),
    taken once per distinct n."""
    base = log_gamma(x)
    values, reps = np.unique(counts, return_counts=True)
    return sum(r * (log_gamma(x + v) - base) for v, r in zip(values, reps))


def _homogeneous_log_post(counts, tau, grid):
    """Log prior plus the M marginal log likelihoods of the shared alpha."""
    return (-0.5 * grid**2 / tau**2 + _log_rising_sum(grid, counts.counts)
            - _log_rising_sum(counts.n_categories * grid, counts.row_sums))


def quadrature_posterior(counts, prior, grid):
    """Exact (trapezoid-normalized) posterior density of the shared alpha.

    Deterministic oracle for the homogeneous model: exp(sum of marginal log
    likelihoods plus the truncated-normal log prior) on the grid. Refuses
    grids with adjacent log-density jumps above 0.5 or a heavy endpoint.
    """
    grid = check_grid(grid)
    log_f = _homogeneous_log_post(counts, prior.tau, grid)
    return normalize_on_grid(grid, log_f)


def homogeneous_posterior_grid(counts, prior):
    """`posterior_grid` of the shared-alpha posterior."""
    return posterior_grid(partial(_homogeneous_log_post, counts, prior.tau))


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
    a1, a2 = grid[:, None], grid[None, :]
    log_f = (-0.5 * a1**2 / prior.tau**2 + _log_rising_sum(a1, counts.counts[:, 0])
             - 0.5 * a2**2 / prior.tau**2 + _log_rising_sum(a2, counts.counts[:, 1])
             - _log_rising_sum(a1 + a2, counts.row_sums))
    f = np.exp(log_f - log_f.max())
    z = np.trapezoid(np.trapezoid(f, grid, axis=1), grid)
    return f / z


def posterior_predictive(samples, draws_per_sample, rng):
    """Simplex draws p* ~ Dirichlet(alpha^(s)), `draws_per_sample` per row,
    grouped by sample in one log-scale matrix draw and exponentiated."""
    if samples.size == 0:
        raise ValueError("no posterior samples to predict from")
    if draws_per_sample < 1:
        raise ValueError("draws_per_sample must be >= 1")
    conc = np.repeat(samples.draws, draws_per_sample, axis=0)
    return np.exp(dirichlet_log_sample(conc, rng))
