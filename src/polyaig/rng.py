"""Seeded random generation and exact samplers for the base distributions.

Every sampler takes an explicit ``numpy.random.Generator``, is
deterministic given (seed, parameters) and returns an array of draws
(`dirichlet_log_sample` in log scale only). Parallel chains must use
independent child streams (`child_rng`), never a shared stream.

The generalized inverse Gaussian sampler serves the one order that every
P-IG component has: GIG(-3/2, chi, tilt), with density proportional to
x^(-5/2) exp{-(chi^2/x + tilt^2 x)/2} on x > 0 and mean chi^2/(1 + omega),
omega = chi*tilt. It is exact in three branches:

* tilt == 0      -> inverted gamma draw (chi^2/2) / Gamma(3/2),
* omega <= `_OMEGA_SPLIT` -> that draw tilted by exp(-tilt^2 x/2), by
  rejection,
* otherwise      -> 1/Y with Y ~ GIG(3/2), drawn without rejection from an
  inverse Gaussian (Michael, Schucany & Haas, 1976), an exponential and,
  with probability 1/(1 + omega), a squared normal.

All branches are exact; only their expected cost differs.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp

# Pinned bit generator; the determinism contracts are stated against it.
BIT_GENERATOR = "PCG64"

# GIG tilt rejection serves omega = chi*tilt up to this value, where it
# accepts with probability (1 + omega) e^-omega >= 2/e ~ 0.74. Measured
# break-even: per draw, a one-copy P-IG group's tilt rejection costs what the
# rejection-free draw costs near omega 0.7-0.8, and a call's rejection-free
# draws add about 20 us fixed, so gamma-shape P-IG calls are fastest at 0.8-1.2.
_OMEGA_SPLIT = 1.0

# Pass cap of every vectorized rejection loop; reaching it raises. The GIG
# tilt rejections accept a pending entry with probability at least 1/2 per
# pass (one copy within the split 0.74, a P-IG group of more 1/2) and the
# alpha kernel's with at least 1 - 0.4^8 (8 proposals, each accepted with
# probability over 0.6), so a correct draw outlasts the cap with
# probability below 1e-3000.
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
    """Dirichlet draw(s) as log_p, computed in log scale throughout.

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
    if np.count_nonzero(u) == u.size:
        log_u = np.log(u)
    else:  # an exact 0.0 gives log_p = -inf
        with np.errstate(divide="ignore"):
            log_u = np.log(u)
    log_g = np.log(x) + log_u / conc
    top = log_g.max(axis=-1, keepdims=True)
    return log_g - (top + np.log(np.exp(log_g - top).sum(axis=-1, keepdims=True)))


def truncated_normal_sample(mean, variance, lower, rng):
    """Exact draws from N(mean, variance) conditioned on value > lower.

    The parameters broadcast against each other, at least one of them an
    array of one or more dimensions (else ValueError, before any draw), and
    give one draw per entry from one uniform u each, in index order: the
    inverse CDF z = -ndtri_exp(log1p(-u) + log_ndtr(-a)) at the
    standardized cutoff a. log1p(-u) is finite for every u in [0, 1), and
    the log scale keeps the tail mass finite however deep the cutoff, so no
    uniform is redrawn and no proposal rejected. A draw that rounding puts
    below `lower` (u near 0) is returned as `lower`.
    """
    ok = np.isfinite(variance) & (variance > 0)
    if np.count_nonzero(ok) != ok.size:
        raise ValueError("variance must be finite and > 0")
    sd = np.sqrt(variance)
    a = (lower - mean) / sd
    if not isinstance(a, np.ndarray):  # ufuncs return 0-d results as scalars
        raise ValueError("mean, variance or lower must be an array")
    log_q = np.log1p(-rng.random(a.shape))
    log_q += _sp.log_ndtr(-a)
    return np.maximum(mean - sd * _sp.ndtri_exp(log_q), lower)


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


def _inverse_size_biased(chi, omega, rng):
    """GIG(-3/2, chi, tilt) without rejection, for omega = chi*tilt above
    the split, in the shape of `omega` (to which `chi` broadcasts).

    1/X ~ GIG(3/2) is GIG(1/2) = IG(mean tilt/chi, shape tilt^2) +
    Gamma(1/2, rate chi^2/2) size-biased, which size-biases one term picked
    in proportion to its mean: the gamma (to Gamma(3/2)) with probability
    1/(1 + omega), else the IG (to IG + Gamma(1/2)). So chi^2/X = omega V +
    2E + B Z^2: V ~ IG(1, omega), E ~ Exp(1), B ~ Bernoulli(1/(1 + omega))
    and Z ~ N(0, 1), drawn only where B = 1. V is Michael, Schucany & Haas's
    (1976) root of a normal N: with r = N^2/(2 omega) and y = 1 + r +
    sqrt(r (r + 2)) (no cancellation), 1/y with probability y/(1 + y), else y.
    """
    z = rng.standard_normal(omega.shape)
    u = rng.random((2, *omega.shape))
    r = z * z / (omega + omega)
    y = 1.0 + r + np.sqrt(r * (r + 2.0))
    s = np.where(u[0] * (1.0 + y) <= y, omega / y, omega * y)
    s += 2.0 * rng.standard_exponential(omega.shape)
    gate = u[1] * (1.0 + omega) >= omega
    z = rng.standard_normal(np.count_nonzero(gate))
    s[gate] += z * z
    return np.divide(chi * chi, s, out=s)


def gig_rvs(chi, tilt, rng):
    """Vectorized exact GIG(-3/2, chi, tilt) draws; `chi` > 0 and `tilt` >= 0
    broadcast. Draws the tilt == 0 entries, then the tilt rejection
    entries, then the omega > `_OMEGA_SPLIT` entries, each in index order.
    """
    chi, tilt = np.asarray(chi, float), np.asarray(tilt, float)
    omega = chi * tilt
    if np.count_nonzero(omega > _OMEGA_SPLIT) == omega.size:  # no masks
        return _inverse_size_biased(chi, omega, rng)
    chi, tilt = np.broadcast_arrays(chi, tilt)
    shape = chi.shape
    chi, tilt, omega = np.ravel(chi), np.ravel(tilt), np.ravel(omega)
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
        out[slow] = _inverse_size_biased(chi[slow], omega[slow], rng)
    return out.reshape(shape)
