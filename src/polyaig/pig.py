"""The Polya-inverse Gamma distribution P-IG(d, c).

A P-IG(d, 0) variate is the infinite convolution of inverse-gamma
components with shapes 3/2 and scales 1/(4 d_k^2); tilting by exp(-c^2 w/2)
turns each component into GIG(-3/2, 1/(sqrt(2) d_k), |c|). The Laplace
transform E[exp(-w t^2)] is the infinite product

    prod_k ((d_k + u) / (d_k + v)) * exp(-(u - v)/d_k),
    u = sqrt(t^2 + c^2/2),  v = |c|/sqrt(2).

The ladder is affine, d_k = shift + k - 1 (shift 1 gives d_k = k), so the
product collapses to a ratio of gamma functions via the Weierstrass
product of 1/Gamma, and the tail mean to a digamma difference. Sampling
truncates the convolution at `trunc_terms` exact GIG draws and adds the
exact mean of the discarded tail, so draws are unbiased in the mean and
the residual transform error is quantified by the oracle checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .rng import MAX_REJECTION_PASSES, _OMEGA_SPLIT, gig_rvs, rejection_cap_error
from .special import digamma, log_gamma

_SQRT2 = np.sqrt(2.0)

# Element budget per rejection batch; keeps the trunc_terms x n_draws
# matrices out of swap without changing the draw stream for a fixed value.
_CHUNK_ELEMENTS = 4_000_000


@dataclass(frozen=True)
class PigParams:
    """Affine ladder d_k = shift + k - 1 plus the tilt c (used via |c|).

    shift = 1 is the integer ladder d_k = k.
    """

    c: float = 0.0
    shift: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.c):
            raise ValueError("tilt c must be finite")
        if not (np.isfinite(self.shift) and self.shift > 0):
            raise ValueError("ladder shift must be finite and > 0")

    @classmethod
    def integer(cls, c=0.0):
        return cls(c=c)

    @classmethod
    def shifted(cls, shift, c=0.0):
        return cls(c=c, shift=shift)

    @property
    def tilt(self):
        return abs(self.c)

    def d_values(self, terms):
        if terms < 1:
            raise ValueError("terms must be >= 1")
        return self.shift + np.arange(terms, dtype=float)


@dataclass(frozen=True)
class PigSamplerConfig:
    """Truncation budget for the convolution sampler.

    `trunc_terms` exact components are drawn; the mean of everything past
    them is added deterministically.
    """

    trunc_terms: int = 200

    def __post_init__(self):
        if self.trunc_terms < 1:
            raise ValueError("trunc_terms must be >= 1")


def pig_laplace_product(params, t, terms):
    """Truncated-product evaluation of E[exp(-w t^2)], in log space."""
    if terms < 1:
        raise ValueError("terms must be >= 1")
    d = params.d_values(terms)
    v = params.tilt / _SQRT2
    u = np.hypot(t, v)
    log_lt = np.sum(np.log(d + u) - np.log(d + v)) - (u - v) * np.sum(1.0 / d)
    return float(np.exp(log_lt))


def _log_g(x, shift):
    # log of the full infinite product at argument x for ladder d_k = shift+k-1:
    # psi(shift)*x + lgamma(shift) - lgamma(shift + x).
    return digamma(shift) * x + log_gamma(shift) - log_gamma(shift + x)


def pig_laplace_closed(params, t):
    """Closed-form transform E[exp(-w t^2)].

    Equals G(u)/G(v) with u = sqrt(t^2 + c^2/2), v = |c|/sqrt(2) and
    log G(x) = psi(a) x + lgamma(a) - lgamma(a + x) for the ladder start
    a = shift (a = 1 reduces to exp(-gamma x)/Gamma(x + 1)).
    """
    a = params.shift
    v = params.tilt / _SQRT2
    u = np.hypot(t, v)
    return float(np.exp(_log_g(u, a) - _log_g(v, a)))


def erg_laplace(a, t):
    """Gamma-ratio transform Gamma(a)/Gamma(a + t).

    Pure formula evaluator: for digamma(a) < 0 the value can exceed 1 and
    is then not the transform of any distribution.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    return float(np.exp(log_gamma(a) - log_gamma(a + t)))


def gig_term_mean(params, k):
    """Mean of the k-th convolution component GIG(-3/2, 1/(sqrt2 d_k), |c|)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    d = float(params.d_values(k)[-1])
    delta = 1.0 / (_SQRT2 * d)
    if params.tilt == 0.0:
        return delta * delta
    return delta * delta / (1.0 + delta * params.tilt)


def _tail_mean_ladder(shift, trunc_terms, tilts):
    """Exact tail mean sum_{k>K} 1/(2 d_k (d_k + v)) for affine ladders.

    Telescopes to (psi(a + K + v) - psi(a + K)) / (2 v), with the
    polygamma limit at v = 0.
    """
    tilts = np.asarray(tilts, dtype=float)
    v = tilts / _SQRT2
    start = shift + trunc_terms
    out = np.empty(v.shape)
    zero = v == 0.0
    if zero.any():
        out[zero] = 0.5 * _sp.polygamma(1, start)
    if (~zero).any():
        vv = v[~zero]
        out[~zero] = (_sp.psi(start + vv) - _sp.psi(start)) / (2.0 * vv)
    return out


def pig_tail_mean(params, config):
    """Mean of the convolution terms past `config.trunc_terms`: the exact
    digamma closed form for the whole infinite tail."""
    return float(_tail_mean_ladder(params.shift, config.trunc_terms, params.tilt))


def _shared_split(deltas, tilts):
    """Number k0 of leading omega > `_OMEGA_SPLIT` terms when every row has
    exactly those, and its rejection entries are the suffix k >= k0; else None.

    omega = tilt * delta_k rounds monotonically in tilt, so every row's split
    lies between those of the smallest and the largest tilt.
    """
    fast = tilts.max() * deltas <= _OMEGA_SPLIT
    k0 = deltas.size - int(fast.sum())
    if fast[k0:].all() and np.array_equal(tilts.min() * deltas <= _OMEGA_SPLIT, fast):
        return k0
    return None


def _ladder_gig_block(deltas, tilts, rng):
    """(tilts x terms) block of exact GIG(-3/2, delta_k, tilt_i) draws.

    Same values from the same random stream as
    `gig_rvs(-1.5, deltas[None, :], tilts[:, None], rng)`, drawn in its
    order: the untilted rows, then the omega = delta_k * tilt_i <=
    `_OMEGA_SPLIT` entries by tilt rejection (row-major, pass by pass),
    then the omega > `_OMEGA_SPLIT` entries. The first and last groups go
    through `gig_rvs`; the rejection entries are drawn here, with
    delta_k^2/2 computed once per term and -tilt^2/2 once per row. When
    all rows share one suffix of rejection entries (decreasing deltas, and
    one tilt or tilts whose splits coincide), the first pass runs on that
    dense block.
    """
    rows, kt = tilts.size, deltas.size
    out = np.empty((rows, kt))
    tilted = tilts > 0.0
    if not tilted.all():
        out[~tilted] = gig_rvs(-1.5, deltas, np.zeros((rows - tilted.sum(), 1)), rng)
        if not tilted.any():
            return out
        tilts = tilts[tilted]
    blk = out if tilts.size == rows else np.empty((tilts.size, kt))
    flat = blk.reshape(-1)
    half_chi2 = deltas**2 / 2.0
    neg_half_tilt2 = -0.5 * tilts**2
    k0 = _shared_split(deltas, tilts)
    if k0 is not None:
        dense = blk[:, k0:]
        np.divide(half_chi2[k0:], rng.standard_gamma(1.5, size=dense.size)
                  .reshape(dense.shape), out=dense)
        keep = rng.random(dense.size).reshape(dense.shape) <= np.exp(
            neg_half_tilt2[:, None] * dense)
        r, c = np.nonzero(~keep)
        pos, chi_r, tilt_r = r * kt + (c + k0), half_chi2[c + k0], neg_half_tilt2[r]
        passes = 1
    else:
        fast = tilts[:, None] * deltas <= _OMEGA_SPLIT
        pos = np.flatnonzero(fast)
        chi_r = np.broadcast_to(half_chi2, fast.shape)[fast]
        tilt_r = np.repeat(neg_half_tilt2, fast.sum(axis=1))
        passes = 0
    while pos.size:
        if passes == MAX_REJECTION_PASSES:
            raise rejection_cap_error(
                "P-IG ladder tilt rejection", pos.size, order=-1.5,
                chi=np.sqrt(2.0 * chi_r), tilt=np.sqrt(-2.0 * tilt_r))
        x = chi_r / rng.standard_gamma(1.5, size=pos.size)
        keep = rng.random(pos.size) <= np.exp(tilt_r * x)
        flat[pos[keep]] = x[keep]
        rej = ~keep
        pos, chi_r, tilt_r = pos[rej], chi_r[rej], tilt_r[rej]
        passes += 1
    if k0 is not None:
        if k0:
            blk[:, :k0] = gig_rvs(-1.5, deltas[:k0], tilts[:, None], rng)
    elif not fast.all():
        slow = ~fast
        blk[slow] = gig_rvs(-1.5, np.broadcast_to(deltas, slow.shape)[slow],
                            np.broadcast_to(tilts[:, None], slow.shape)[slow], rng)
    if blk is not out:
        out[tilted] = blk
    return out


def _pig_component_sums(deltas, tilts, rng):
    """Sum of exact GIG(-3/2, delta_k, tilt_i) draws over k, one per tilt."""
    n, kt = tilts.size, deltas.size
    rows_per_chunk = max(1, _CHUNK_ELEMENTS // kt)
    out = np.empty(n)
    for lo in range(0, n, rows_per_chunk):
        hi = min(n, lo + rows_per_chunk)
        out[lo:hi] = _ladder_gig_block(deltas, tilts[lo:hi], rng).sum(axis=1)
    return out


def pig_sample_with_tilts(params, tilts, config, rng):
    """Batch of P-IG draws sharing the ladder of `params`, one per tilt.

    The workhorse behind the Gibbs updates: each draw is the truncated
    convolution at `config.trunc_terms` plus its exact tail mean.
    """
    tilts = np.abs(np.asarray(tilts, dtype=float))
    if not np.all(np.isfinite(tilts)):
        raise ValueError("tilts must be finite")
    kt = config.trunc_terms
    deltas = 1.0 / (_SQRT2 * params.d_values(kt))
    body = _pig_component_sums(deltas, np.ravel(tilts), rng).reshape(tilts.shape)
    return body + _tail_mean_ladder(params.shift, kt, tilts)


def pig_sample(params, config, rng, size=None):
    """Exact-in-mean P-IG(d, c) draw(s): truncated convolution + tail mean."""
    n = 1 if size is None else int(size)
    draws = pig_sample_with_tilts(params, np.full(n, params.tilt), config, rng)
    return float(draws[0]) if size is None else draws


def pig_mean(params, config=None):
    """Exact mean of the full convolution (tail included)."""
    cfg = config or PigSamplerConfig()
    d = params.d_values(cfg.trunc_terms)
    delta = 1.0 / (_SQRT2 * d)
    if params.tilt == 0.0:
        head = np.sum(delta * delta)
    else:
        head = np.sum(delta * delta / (1.0 + delta * params.tilt))
    return float(head + pig_tail_mean(params, cfg))


def mc_transform(draws, t):
    """Monte-Carlo estimate of E[exp(-w t^2)] with its standard error."""
    vals = np.exp(-(t * t) * np.asarray(draws))
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(vals.size))
