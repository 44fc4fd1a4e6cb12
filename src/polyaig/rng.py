"""Seeded random generation and exact samplers for the base distributions.

Every sampler takes an explicit ``numpy.random.Generator`` and is
deterministic given (seed, parameters). Parallel chains must use
independent child streams (`child_rng`), never a shared stream.

The generalized inverse Gaussian sampler serves the one order that every
P-IG component has: GIG(-3/2, chi, tilt), with density proportional to
x^(-5/2) exp{-(chi^2/x + tilt^2 x)/2} on x > 0 and mean chi^2/(1 + omega),
omega = chi*tilt. It is exact in three branches:

* tilt == 0      -> inverted gamma draw (chi^2/2) / Gamma(3/2),
* omega <= `_OMEGA_SPLIT` -> that draw tilted by exp(-tilt^2 x/2), by
  rejection,
* otherwise      -> 1/Y with Y ~ GIG(3/2), drawn without rejection as an
  inverse Gaussian plus a gamma variate.

All branches are exact; only their expected cost differs.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp

# Pinned bit generator; the determinism contracts are stated against it.
BIT_GENERATOR = "PCG64"

# GIG tilt rejection serves omega = chi*tilt up to this value, where it
# accepts with probability (1 + omega) e^-omega >= 3 e^-2 ~ 0.41; above it
# the rejection-free draw costs less.
_OMEGA_SPLIT = 2.0

# Standardized truncation point beyond which the truncated-normal sampler
# switches from inverse-CDF to exponential-tilt tail rejection.
_TN_TAIL_CUTOFF = 4.0

# Pass cap of every vectorized rejection loop; reaching it raises. The GIG
# tilt rejections accept a pending entry with probability at least 0.41 per
# pass (omega <= 2), the normal tail above 0.97 and the inverse CDF's redraw
# of an exact 0.0 uniform all but surely, so a correct draw outlasts the cap
# with probability below 1e-1000.
MAX_REJECTION_PASSES = 10_000


def _describe(values):
    values = np.atleast_1d(values)
    lo, hi = values.min(), values.max()
    return f"{lo:.6g}" if lo == hi else f"{lo:.6g} to {hi:.6g}"


def rejection_cap_error(sampler, remaining, **params):
    """ValueError for a rejection loop that hit `MAX_REJECTION_PASSES`,
    naming the parameters (value or range) of the entries still pending."""
    named = ", ".join(f"{k} {_describe(v)}" for k, v in params.items())
    return ValueError(f"{sampler}: {remaining} draw(s) still rejected after "
                      f"{MAX_REJECTION_PASSES} passes ({named})")


def make_rng(seed):
    """Root generator for a run."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def child_rng(seed, stream):
    """Independent stream derived from (seed, stream-index).

    Children with distinct indices are statistically independent of each
    other and of `make_rng(seed)` by SeedSequence construction.
    """
    ss = np.random.SeedSequence(seed, spawn_key=(stream,))
    return np.random.Generator(np.random.PCG64(ss))


def dirichlet_log_sample(conc, rng):
    """Dirichlet draw(s) returned as (p, log_p), with log_p computed in log scale.

    `conc` is a vector (one draw) or an (M, K) matrix (one draw per row,
    normalized along the last axis). Each component uses the boost identity
    G_a = G_{a+1} * U^(1/a) so the logarithm stays finite even when a
    component underflows to zero in linear scale (tiny concentrations).
    """
    conc = np.atleast_1d(np.asarray(conc, dtype=float))
    if conc.ndim > 2 or conc.size == 0:
        raise ValueError("conc must be a nonempty vector or matrix")
    if not (conc.min() > 0.0 and conc.max() < np.inf):  # both False for a NaN
        raise ValueError("all concentrations must be finite and > 0")
    x = rng.standard_gamma(conc + 1.0)
    u = rng.random(conc.shape)
    if u.all():
        log_u = np.log(u)
    else:  # an exact 0.0 gives log_p = -inf, p = 0
        with np.errstate(divide="ignore"):
            log_u = np.log(u)
    log_g = np.log(x) + log_u / conc
    top = log_g.max(axis=-1, keepdims=True)
    log_p = log_g - (top + np.log(np.exp(log_g - top).sum(axis=-1, keepdims=True)))
    return np.exp(log_p), log_p


def _tn_inverse_cdf(a, rng, n):
    """n standardized draws from N(0,1) | Z > a by inverse CDF; `a` is a
    scalar or has n entries."""
    u = rng.random(n)
    redo = u == 0.0  # keep ndtri off the -inf endpoint
    passes = 0
    while redo.any():
        if passes == MAX_REJECTION_PASSES:
            raise rejection_cap_error("truncated-normal inverse CDF", int(redo.sum()),
                                      cutoff=np.broadcast_to(a, n)[redo])
        passes += 1
        u[redo] = rng.random(int(redo.sum()))
        redo = u == 0.0
    return -_sp.ndtri(u * _sp.ndtr(-a))


def _tn_tail_rejection(a, rng, n):
    """n standardized draws from N(0,1) | Z > a for large a (Robert's
    method); `a` is one cutoff for all n draws or has n entries. Every
    pending draw takes part in each pass."""
    shared = not isinstance(a, np.ndarray)
    lam = 0.5 * (a + np.sqrt(a * a + 4.0))
    out = np.empty(n)
    todo = np.arange(n)
    passes = 0
    while todo.size:
        cut, rate = (a, lam) if shared else (a[todo], lam[todo])
        if passes == MAX_REJECTION_PASSES:
            raise rejection_cap_error("truncated-normal tail rejection",
                                      todo.size, cutoff=cut)
        passes += 1
        z = cut + rng.exponential(1.0 / rate, size=todo.size)
        keep = np.log(rng.random(todo.size)) <= -0.5 * (z - rate) ** 2
        out[todo[keep]] = z[keep]
        todo = todo[~keep]
    return out


def truncated_normal_sample(mean, variance, lower, rng, size=None):
    """Exact draw from N(mean, variance) conditioned on value > lower.

    Scalar parameters give one float, or `size` draws. Array parameters
    broadcast against each other and give one draw per entry (`size` must
    then be None): the inverse-CDF entries first, then the tail entries.
    Inverse-CDF for mild truncation; exponential-tilt rejection once the
    standardized cutoff exceeds `_TN_TAIL_CUTOFF` (bounded expected cost
    however deep the tail).
    """
    if isinstance(variance, np.ndarray):
        ok = np.isfinite(variance) & (variance > 0)
        valid = np.count_nonzero(ok) == ok.size
    else:
        valid = np.isfinite(variance) and variance > 0
    if not valid:
        raise ValueError("variance must be finite and > 0")
    sd = np.sqrt(variance)
    a = (lower - mean) / sd
    if not isinstance(a, np.ndarray):  # one cutoff (ufuncs return 0-d as scalars)
        n = 1 if size is None else int(size)
        if a <= _TN_TAIL_CUTOFF:
            z = _tn_inverse_cdf(a, rng, n)
        else:
            z = _tn_tail_rejection(a, rng, n)
        out = mean + sd * z
        return float(out[0]) if size is None else out
    if size is not None:
        raise ValueError("size needs scalar mean, variance and lower")
    tail = a > _TN_TAIL_CUTOFF
    n_tail = np.count_nonzero(tail)
    if n_tail == 0:
        z = _tn_inverse_cdf(a.ravel(), rng, a.size).reshape(a.shape)
    elif n_tail == a.size:
        z = _tn_tail_rejection(a.ravel(), rng, a.size).reshape(a.shape)
    else:
        z = np.empty(a.shape)
        mild = ~tail
        z[mild] = _tn_inverse_cdf(a[mild], rng, a.size - n_tail)
        z[tail] = _tn_tail_rejection(a[tail], rng, n_tail)
    return mean + sd * z


def _tilt_rejection(chi, tilt, rng):
    """GIG(-3/2, chi, tilt) by tilting the inverted-gamma base draw.

    Proposal 1/Gamma(3/2, rate chi^2/2); accept with exp(-tilt^2 x / 2), so
    with probability (1 + omega) e^-omega. `gig_rvs` gates it on omega.
    """
    out = np.empty(chi.shape)
    todo = np.arange(chi.size)
    passes = 0
    while todo.size:
        if passes == MAX_REJECTION_PASSES:
            raise rejection_cap_error("GIG tilt rejection", todo.size, order=-1.5,
                                      chi=chi[todo], tilt=tilt[todo])
        passes += 1
        x = (chi[todo] ** 2 / 2.0) / rng.standard_gamma(1.5, size=todo.size)
        keep = rng.random(todo.size) <= np.exp(-0.5 * tilt[todo] ** 2 * x)
        out[todo[keep]] = x[keep]
        todo = todo[~keep]
    return out


def _inverse_size_biased(chi, tilt, rng):
    """GIG(-3/2, chi, tilt) without rejection, for omega = chi*tilt > 2.

    1/X ~ GIG(3/2), density y^(1/2) exp{-(chi^2 y + tilt^2/y)/2}: GIG(1/2)
    size-biased. GIG(1/2) = IG(mean tilt/chi, shape tilt^2) + Gamma(1/2, rate
    chi^2/2), and size-biasing a sum size-biases one term, picked in
    proportion to its mean: the IG (IG + Gamma(1/2)) with probability
    omega/(1 + omega), else the gamma (Gamma(3/2)). `wald` is well
    conditioned here, its mean/shape ratio 1/omega < 1/2.
    """
    omega = chi * tilt
    half_m = np.where(rng.random(chi.size) * (1.0 + omega) < omega, 1.0, 1.5)
    gamma = rng.standard_gamma(half_m) * (2.0 / (chi * chi))
    return 1.0 / (rng.wald(tilt / chi, tilt * tilt) + gamma)


def gig_rvs(chi, tilt, rng):
    """Vectorized exact GIG(-3/2, chi, tilt) draws; `chi` > 0 and `tilt` >= 0
    broadcast. Draws the tilt == 0 entries, then the tilt rejection
    entries, then the omega > `_OMEGA_SPLIT` entries, each in index order.
    """
    chi, tilt = np.broadcast_arrays(np.asarray(chi, float), np.asarray(tilt, float))
    shape = chi.shape
    chi, tilt = np.ravel(chi), np.ravel(tilt)
    omega = chi * tilt
    out = np.empty(chi.size)

    untilted = tilt == 0.0
    fast = ~untilted & (omega <= _OMEGA_SPLIT)
    slow = ~untilted & ~fast
    if untilted.any():
        out[untilted] = (chi[untilted] ** 2 / 2.0) / rng.standard_gamma(
            1.5, size=int(untilted.sum()))
    if fast.any():
        out[fast] = _tilt_rejection(chi[fast], tilt[fast], rng)
    if slow.any():
        out[slow] = _inverse_size_biased(chi[slow], tilt[slow], rng)
    return out.reshape(shape)
