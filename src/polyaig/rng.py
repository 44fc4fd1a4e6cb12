"""Seeded random generation and exact samplers for the base distributions.

Every sampler takes an explicit ``numpy.random.Generator`` and is
deterministic given (seed, parameters). Parallel chains must use
independent child streams (`child_rng`), never a shared stream.

The generalized inverse Gaussian sampler is exact rejection sampling:

* tilt == 0      -> inverted gamma draw (requires order < 0),
* chi == 0       -> gamma draw (requires order > 0),
* order == -1/2  -> inverse Gaussian (Wald) draw,
* small chi*tilt with |order| >= 1 -> exponential-tilt rejection from the
  matching zero-tilt branch,
* otherwise      -> ratio-of-uniforms with mode shift on the two-parameter
  form, reflected through x -> 1/x for negative orders.

All branches are exact; only their expected cost differs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

# Pinned bit generator; the determinism contracts are stated against it.
BIT_GENERATOR = "PCG64"

# Tilt-rejection is used below this chi*tilt product when |order| >= 1;
# above it the shifted ratio-of-uniforms bound is tighter.
_OMEGA_SPLIT = 2.0

# Standardized truncation point beyond which the truncated-normal sampler
# switches from inverse-CDF to exponential-tilt tail rejection.
_TN_TAIL_CUTOFF = 4.0

# Pass cap of every vectorized rejection loop; reaching it raises. The tilt
# rejections accept a pending entry with probability at least 2 K_1(2) ~ 0.28
# per pass (|order| = 1, omega = 2), the shifted ratio-of-uniforms about 0.7
# and the normal tail above 0.97, so a correct draw outlasts the cap with
# probability below 1e-1000. The plain ratio-of-uniforms (0 <= order < 1,
# omega <= 1) accepts less as omega -> 0 (about 1% at order 0, omega 1e-3);
# below omega ~ 1e-4 large batches reach the cap.
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


@dataclass(frozen=True)
class GigParams:
    """Order/chi/tilt triple (nu, delta, gamma) of one GIG component.

    Density is proportional to x^(order-1) exp{-(chi^2/x + tilt^2 x)/2}
    on x > 0.
    """

    order: float
    chi: float
    tilt: float

    def __post_init__(self):
        if not all(np.isfinite([self.order, self.chi, self.tilt])):
            raise ValueError("GigParams must be finite")
        if self.chi < 0 or self.tilt < 0:
            raise ValueError("chi and tilt must be nonnegative")
        if self.chi == 0 and self.tilt == 0:
            raise ValueError("chi and tilt cannot both be zero")
        if self.tilt == 0 and self.order >= 0:
            raise ValueError("tilt == 0 requires order < 0 (reciprocal-gamma branch)")
        if self.chi == 0 and self.order <= 0:
            raise ValueError("chi == 0 requires order > 0 (gamma branch)")


def gamma_sample(shape, rate, rng, size=None):
    """Exact gamma draw(s) with mean shape/rate."""
    if not (np.isfinite(shape) and np.isfinite(rate)) or shape <= 0 or rate <= 0:
        raise ValueError("gamma_sample requires shape > 0 and rate > 0")
    return rng.standard_gamma(shape, size=size) / rate


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
    if not np.all(np.isfinite(conc)) or np.any(conc <= 0.0):
        raise ValueError("all concentrations must be finite and > 0")
    x = rng.standard_gamma(conc + 1.0)
    u = rng.random(conc.shape)
    with np.errstate(divide="ignore"):
        log_g = np.log(x) + np.log(u) / conc
    top = log_g.max(axis=-1, keepdims=True)
    log_p = log_g - (top + np.log(np.exp(log_g - top).sum(axis=-1, keepdims=True)))
    return np.exp(log_p), log_p


def _tn_inverse_cdf(a, rng, n):
    """n standardized draws from N(0,1) | Z > a by inverse CDF; `a` is a
    scalar or has n entries."""
    u = rng.random(n)
    while np.any(u == 0.0):  # keep ndtri off the -inf endpoint
        redo = u == 0.0
        u[redo] = rng.random(int(redo.sum()))
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
        valid = np.all(np.isfinite(variance) & (variance > 0))
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
    z = np.empty(a.shape)
    tail = a > _TN_TAIL_CUTOFF
    mild = ~tail
    z[mild] = _tn_inverse_cdf(a[mild], rng, int(mild.sum()))
    if tail.any():
        z[tail] = _tn_tail_rejection(a[tail], rng, int(tail.sum()))
    return mean + sd * z


def _gig_log_kernel(x, lam, omega):
    return (lam - 1.0) * np.log(x) - 0.5 * omega * (x + 1.0 / x)


def _rou_shift_box(lam, omega):
    """Mode, log-kernel at the mode, and lower u-bound and u-width of the
    mode-shifted ratio-of-uniforms rectangle, elementwise in `omega`."""
    t = lam - 1.0
    if lam >= 1.0:
        mode = (t + np.hypot(t, omega)) / omega
    else:
        mode = omega / (np.hypot(t, omega) - t)

    # Bounding box: u-extrema solve the cubic x^3 + A x^2 + B x + mode = 0,
    # whose middle/largest roots bracket the mode.
    A = -(2.0 * (lam + 1.0) / omega + mode)
    B = 2.0 * t * mode / omega - 1.0
    p = B - A * A / 3.0
    q = 2.0 * A**3 / 27.0 - A * B / 3.0 + mode
    phi = np.arccos(np.clip(-(q / 2.0) * np.sqrt(-27.0 / p**3), -1.0, 1.0))
    fak = 2.0 * np.sqrt(-p / 3.0)
    y_hi = fak * np.cos(phi / 3.0) - A / 3.0
    y_lo = fak * np.cos(phi / 3.0 + 4.0 * np.pi / 3.0) - A / 3.0

    lg_mode = _gig_log_kernel(mode, lam, omega)
    u_plus = (y_hi - mode) * np.exp(0.5 * (_gig_log_kernel(y_hi, lam, omega) - lg_mode))
    u_minus = (y_lo - mode) * np.exp(0.5 * (_gig_log_kernel(y_lo, lam, omega) - lg_mode))
    return mode, lg_mode, u_minus, u_plus - u_minus


def _gig2_rou_shift(lam, omega, rng):
    """Two-parameter GIG(lam, omega) draws by ratio-of-uniforms with mode shift.

    Valid for lam >= 1 or omega > 1; `omega` is an array, one draw each.
    Kernel: x^(lam-1) exp(-omega (x + 1/x) / 2). The rectangle is set up
    once per distinct omega (P-IG ladders repeat each term's omega on
    every row that shares a tilt).
    """
    distinct, where = np.unique(omega, return_inverse=True)
    mode, lg_mode, u_minus, u_range = (v[where] for v in _rou_shift_box(lam, distinct))

    out = np.empty(omega.shape)
    todo = np.arange(omega.size)
    passes = 0
    while todo.size:
        if passes == MAX_REJECTION_PASSES:
            raise rejection_cap_error("GIG(|order|, omega) ratio-of-uniforms with "
                                      "mode shift", todo.size, order=lam,
                                      omega=omega[todo])
        passes += 1
        # the values and stream of rng.uniform(u_minus, u_plus), which
        # computes low + (high - low) * U, without its per-element broadcast
        u = u_minus[todo] + u_range[todo] * rng.random(todo.size)
        v = rng.random(todo.size)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = u / v + mode[todo]
            ok = x > 0.0
            lg = _gig_log_kernel(np.where(ok, x, 1.0), lam, omega[todo])
            keep = ok & (2.0 * np.log(v) <= lg - lg_mode[todo])
        out[todo[keep]] = x[keep]
        todo = todo[~keep]
    return out


def _gig2_rou_plain(lam, omega, rng):
    """Ratio-of-uniforms without shift, for 0 <= lam < 1 and omega <= 1."""
    t = lam - 1.0
    mode = omega / (np.hypot(t, omega) - t)
    x_plus = ((lam + 1.0) + np.hypot(lam + 1.0, omega)) / omega
    lg_mode = _gig_log_kernel(mode, lam, omega)
    u_max = x_plus * np.exp(0.5 * (_gig_log_kernel(x_plus, lam, omega) - lg_mode))

    out = np.empty(omega.shape)
    todo = np.arange(omega.size)
    passes = 0
    while todo.size:
        if passes == MAX_REJECTION_PASSES:
            raise rejection_cap_error("GIG(|order|, omega) ratio-of-uniforms",
                                      todo.size, order=lam, omega=omega[todo])
        passes += 1
        u = rng.uniform(0.0, u_max[todo])
        v = rng.random(todo.size)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = u / v
            ok = x > 0.0
            lg = _gig_log_kernel(np.where(ok, x, 1.0), lam, omega[todo])
            keep = ok & (2.0 * np.log(v) <= lg - lg_mode[todo])
        out[todo[keep]] = x[keep]
        todo = todo[~keep]
    return out


def _gig2(lam, omega, rng):
    """Two-parameter GIG(lam >= 0, omega > 0) draws, vectorized over omega."""
    out = np.empty(omega.shape)
    if lam < 1.0:
        plain = omega <= 1.0
        if plain.any():
            out[plain] = _gig2_rou_plain(lam, omega[plain], rng)
        if (~plain).any():
            out[~plain] = _gig2_rou_shift(lam, omega[~plain], rng)
    else:
        out = _gig2_rou_shift(lam, omega, rng)
    return out


def _tilt_rejection_neg_order(order, chi, tilt, rng):
    """GIG(order < 0, chi, tilt) by tilting the inverted-gamma base draw.

    Proposal 1/Gamma(-order, rate chi^2/2); accept with exp(-tilt^2 x / 2).
    Expected cost grows like e^omega, so callers gate on omega.
    """
    shape = -order
    out = np.empty(chi.shape)
    todo = np.arange(chi.size)
    passes = 0
    while todo.size:
        if passes == MAX_REJECTION_PASSES:
            raise rejection_cap_error("GIG tilt rejection", todo.size, order=order,
                                      chi=chi[todo], tilt=tilt[todo])
        passes += 1
        x = (chi[todo] ** 2 / 2.0) / rng.standard_gamma(shape, size=todo.size)
        keep = rng.random(todo.size) <= np.exp(-0.5 * tilt[todo] ** 2 * x)
        out[todo[keep]] = x[keep]
        todo = todo[~keep]
    return out


def gig_rvs(order, chi, tilt, rng):
    """Vectorized exact GIG draws; `chi` and `tilt` broadcast, `order` scalar.

    Entries with tilt == 0 need order < 0, entries with chi == 0 need
    order > 0 (callers guarantee this; `gig_sample` validates).
    """
    chi, tilt = np.broadcast_arrays(np.asarray(chi, float), np.asarray(tilt, float))
    shape = chi.shape
    chi = np.ravel(chi).copy()
    tilt = np.ravel(tilt).copy()
    out = np.empty(chi.size)

    inv_gamma = tilt == 0.0
    pure_gamma = (chi == 0.0) & ~inv_gamma
    general = ~inv_gamma & ~pure_gamma

    if inv_gamma.any():
        out[inv_gamma] = (chi[inv_gamma] ** 2 / 2.0) / rng.standard_gamma(
            -order, size=int(inv_gamma.sum())
        )
    if pure_gamma.any():
        out[pure_gamma] = rng.standard_gamma(order, size=int(pure_gamma.sum())) * (
            2.0 / tilt[pure_gamma] ** 2
        )
    if general.any():
        c, g = chi[general], tilt[general]
        if order == -0.5:
            vals = rng.wald(c / g, c * c)
        elif order == 0.5:
            vals = 1.0 / rng.wald(g / c, g * g)
        else:
            omega = c * g
            vals = np.empty(c.shape)
            fast = (omega <= _OMEGA_SPLIT) & (abs(order) >= 1.0)
            if fast.any():
                if order < 0:
                    vals[fast] = _tilt_rejection_neg_order(order, c[fast], g[fast], rng)
                else:
                    # mirror branch: tilt a gamma proposal by exp(-chi^2/(2x))
                    todo = np.arange(c.size)[fast]
                    passes = 0
                    while todo.size:
                        if passes == MAX_REJECTION_PASSES:
                            raise rejection_cap_error(
                                "GIG gamma-tilt rejection", todo.size, order=order,
                                chi=c[todo], tilt=g[todo])
                        passes += 1
                        x = rng.standard_gamma(order, size=todo.size) * (2.0 / g[todo] ** 2)
                        with np.errstate(divide="ignore"):
                            keep = rng.random(todo.size) <= np.exp(
                                -0.5 * c[todo] ** 2 / x)
                        vals[todo[keep]] = x[keep]
                        todo = todo[~keep]
            if (~fast).any():
                oo = omega[~fast]
                if order < 0:
                    vals[~fast] = (c[~fast] / g[~fast]) / _gig2(-order, oo, rng)
                else:
                    vals[~fast] = (c[~fast] / g[~fast]) * _gig2(order, oo, rng)
        out[general] = vals
    return out.reshape(shape)


def gig_sample(params, rng, size=None):
    """Exact draw(s) from the GIG distribution given by `params`."""
    if not isinstance(params, GigParams):
        params = GigParams(*params)
    n = 1 if size is None else int(size)
    draws = gig_rvs(params.order, np.full(n, params.chi), np.full(n, params.tilt), rng)
    return float(draws[0]) if size is None else draws
