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

so the auxiliaries w_mk are tilted P-IG draws and each alpha has the
log-concave conditional alpha^M' exp(-a alpha^2 + b alpha) on alpha > 0,
the modified-half-normal law, with M' the number of reciprocal gamma
factors it carries. `modified_half_normal_sample` draws it exactly by
rejection from a two-piece normal hat whose acceptance has a tested floor.
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

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
from scipy.special import erfcx, expit, ndtr

from .chain import sample_chain
from .pig import PigParams, pig_sample_with_tilts
from .rng import (MAX_REJECTION_PASSES, dirichlet_log_sample, make_rng,
                  rejection_cap_error, truncated_normal_sample)
from .special import EULER_GAMMA, log_gamma

_SQRT2 = np.array(np.sqrt(2.0))  # 0-d: see `pig._tail_start`
_INTEGER_LADDER = PigParams()

# The alpha kernel's hat joins its two pieces at 1 + _HAT_JOIN_SDS/sqrt(M')
# times the mode, that many standard deviations of the x^M' e^(-M' x/m)
# factor right of it, and each pass draws _PROPOSALS_PER_PASS proposals per
# alpha.
_HAT_JOIN_SDS = 1.5
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
    on alpha > 0 with a_j = (sum of its w_mk) + 1/(2 tau_j^2) and b_j = sum
    over its categories k of (sum_m log eta_m + M * EULER_GAMMA + sum_m log p_mk).
    `w` holds the (M, K) auxiliaries or their (1, K) column totals, or the
    (1, 1) total when alpha is shared.
    """
    m, k = log_p.shape
    if m == 0:
        raise ValueError("alpha update needs at least one unit")
    n = w.shape[1]
    tau = prior.tau
    if not isinstance(tau, (int, float)):
        tau = prior.tau_vector(k) if n == k else prior.scalar_tau()
    a = np.add.reduce(w) + 1.0 / (2.0 * tau * tau)
    b = np.add.reduce(log_p) + (float(np.add.reduce(np.log(eta))) + m * EULER_GAMMA)
    return a, b if n == k else b.reshape(n, -1).sum(axis=1)


@lru_cache(maxsize=16)
def _hat_shape(power, n):
    """Everything of the alpha kernel that depends only on the power and
    the number n of entries. Scalars are 0-d arrays, which numpy combines
    with small arrays faster than Python floats."""
    e = _HAT_JOIN_SDS / np.sqrt(power)
    rho = 1.0 + e
    kappa = 0.5 / (rho * rho)
    # in the order `alpha_hat` names them, after the power itself
    scalars = tuple(np.array(c) for c in (
        power, 2.0 * power, 2.0 * np.sqrt(power), power / (rho * rho), power / rho,
        e / _SQRT2, e * power / rho, 0.5 * e * e, power * (e - np.log(rho)) + np.log(2.0),
        0.0, 1.0, 2.0))
    # rows: mean, variance, lower bound, largest y served, k2, k1, k0;
    # columns: the body of each entry, then the tail of each entry
    table = np.repeat([[1.0, np.nan], [np.nan, np.nan], [0.0, rho], [rho, np.inf],
                       [kappa, 0.0], [1.0 + 2.0 * kappa, 1.0 / rho],
                       [1.0 + kappa, 1.0 - np.log(rho)]], n, axis=1)
    body = np.repeat(np.arange(n)[:, None], _PROPOSALS_PER_PASS, axis=1)
    first = np.arange(0, n * _PROPOSALS_PER_PASS, _PROPOSALS_PER_PASS)
    shared = (table, body, body + n, first) + scalars
    for array in shared:   # every caller gets these same arrays
        array.setflags(write=False)
    return scalars, *shared[:4]


def alpha_hat(power, a, b):
    """Two-piece hat of f(x) = x^power exp(-a x^2 + b x) on x > 0, one per
    entry of `a` and `b`, in units y = x/m of the mode m of f.

    In these units log f(y) - log f(1) = power (log y - y + 1) - g (y - 1)^2/2
    with g = 2 a m^2. The pieces join at y = rho = 1 + `_HAT_JOIN_SDS`/sqrt(power).
    The body is the normal N(1, 1/(g + power/rho^2)) on y > 0, and its
    draws past rho are refused; past rho the tail is the tangent of log f
    at rho less g (y - rho)^2/2, a normal of variance 1/g on y > rho. Then
    log(f/hat) = power (log y + y (k2 y - k1) + k0), with (k2, k1, k0) =
    (kappa, 1 + 2 kappa, 1 + kappa), kappa = 1/(2 rho^2), in the body and
    (0, 1/rho, 1 - log rho) in the tail.

    Returns m, the probability of the body piece, shape (n, 1), and a
    (7, 2n) table: for the body of each entry, then for its tail, the
    normal's mean, variance and lower bound, the largest y the piece
    serves, then k2, k1 and k0.
    """
    (_, power2, root_power2, body_power, pull_power, pull_scale, tail_shift, odds_g,
     odds_power, zero, one, two), table = _hat_shape(power, a.size)[:2]
    n = a.size
    # z = m sqrt(2a) is the positive root of z^2 - beta z - power with
    # beta = b/sqrt(2a), taken without cancellation; g = z^2
    root_2a = np.sqrt(two * a)
    beta = b / root_2a
    z = power2 / (np.hypot(beta, root_power2) + np.abs(beta)) + np.maximum(beta, zero)
    table = table.copy()
    prec = np.empty(2 * n)   # body precisions, then the tail precisions g
    g = np.multiply(z, z, out=prec[n:])
    body_prec = np.add(g, body_power, out=prec[:n])
    var = np.divide(one, prec, out=table[1])
    np.subtract(one, tail_shift * var[n:], out=table[0, n:])
    root_body = np.sqrt(body_prec)
    # log(body mass / tail mass). The tail's cutoff lies e (g +
    # power/rho)/z standard deviations deep, and ndtr(-c) =
    # erfcx(c/sqrt2) exp(-c^2/2)/2 keeps its mass finite however deep.
    log_odds = odds_power + odds_g * g + np.log(
        z * ndtr(root_body) / (root_body * erfcx(pull_scale * (g + pull_power) / z)))
    return z / root_2a, expit(log_odds)[:, None], table


def modified_half_normal_sample(power, a, b, rng):
    """Exact draws, one per entry of the arrays `a` > 0 and `b`, from the
    density proportional to x^power exp(-a x^2 + b x) on x > 0 (power >= 1).

    Rejection from `alpha_hat`. Each pass draws `_PROPOSALS_PER_PASS`
    proposals for every entry, all pieces in one `truncated_normal_sample`
    call, and each entry keeps its first accepted proposal. The hat accepts
    at least half its proposals (by quadrature over power 1-20000, a
    0.05-5e4 and mode 1e-4-30), so a second pass is rare;
    `MAX_REJECTION_PASSES` bounds the loop.
    """
    mode, p_body, table = alpha_hat(power, a, b)
    scalars, _, body, tail, first = _hat_shape(power, a.size)
    power = scalars[0]
    out, done = None, None
    for _ in range(MAX_REJECTION_PASSES):
        u = rng.random((2, a.size, _PROPOSALS_PER_PASS))
        mean, var, lower, upper, k2, k1, k0 = table.take(
            np.where(u[0] < p_body, body, tail), axis=1)
        y = truncated_normal_sample(mean, var, lower, rng)
        ok = ((np.log(u[1]) < power * (np.log(y) + y * (k2 * y - k1) + k0))
              & (y <= upper))
        pick = first + ok.argmax(axis=1)
        draw, hit = y.take(pick), ok.take(pick)
        if out is None:
            out, done = draw, hit
        else:
            new = hit & ~done
            out[new] = draw[new]
            done |= hit
        if np.count_nonzero(done) == a.size:
            return out * mode
    pending = ~done
    raise rejection_cap_error("modified-half-normal rejection", int(pending.sum()),
                              **{"M'": int(power), "a": a[pending], "b": b[pending]})


def update_alpha(state, prior, rng):
    """alpha | w, eta, p: one exact draw per alpha from its conditional
    alpha^M' exp(-a alpha^2 + b alpha), M' = M * `per_alpha`, with (a, b)
    from `alpha_coefficients`, by `modified_half_normal_sample`: no slice
    variable, and one `truncated_normal_sample` call per rejection pass."""
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
    return _run(counts, prior.mean_vector(k), prior, config, rng,
                [f"alpha_{j+1}" for j in range(k)], "dirichlet-concentration")


def run_chain_homogeneous(counts, prior, config, rng=None):
    """Posterior draws for the shared-alpha model (alpha_1 = ... = alpha_K):
    `gibbs_sweep` with one alpha of shape (1,), started at the prior mean.
    The prior needs one shared tau."""
    alpha = np.sqrt(2.0 / np.pi) * np.atleast_1d(prior.scalar_tau())
    return _run(counts, alpha, prior, config, rng, ["alpha"],
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
    log_f = _homogeneous_log_post(counts, prior.scalar_tau(), grid)
    return normalize_on_grid(grid, log_f)


def homogeneous_posterior_grid(counts, prior):
    """`posterior_grid` of the shared-alpha posterior."""
    return posterior_grid(partial(_homogeneous_log_post, counts, prior.scalar_tau()))


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
    a1, a2 = grid[:, None], grid[None, :]
    log_f = (-0.5 * a1**2 / tau[0] ** 2 + _log_rising_sum(a1, counts.counts[:, 0])
             - 0.5 * a2**2 / tau[1] ** 2 + _log_rising_sum(a2, counts.counts[:, 1])
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
