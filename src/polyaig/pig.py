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

Samplers that read only the sum of many auxiliaries at one tilt ask for
that sum (`copies`), and term k of it is drawn in a few grouped variates.
Term k is InvGamma(3/2, beta_k), beta_k = delta_k^2/2, tilted by
exp(-c^2 x/2); its untilted transform is (1 + z) e^{-z}, z = 2 sqrt(beta_k s),
so the sum of g iid copies has transform (1 + z)^g e^{-gz}. With y = g z and
the reverse Bessel polynomials theta_nu, InvGamma(nu + 1/2, g^2 beta_k) has
transform theta_nu(y)/theta_nu(0) e^{-y}, hence the untilted g-sum is the
mixture sum_nu p_nu InvGamma(nu + 1/2, g^2 beta_k) whose weights solve
(1 + y/g)^g = sum_nu p_nu theta_nu(y)/theta_nu(0). The weights are
nonnegative (Berg & Vignat, "Linearization coefficients of Bessel
polynomials and properties of Student-t distributions", Constr. Approx.
2008). The tilt of a sum is the product of the tilts, so the tilted g-sum
is that mixture tilted by exp(-c^2 x/2): exact rejection from the mixture,
accepting with probability ((1 + omega) e^{-omega})^g, omega = delta_k c.
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

# Grouped sums: the largest group is 2**_MAX_LEVEL same-tilt terms, and a
# still-rejected group gets _RETRY_PROPOSALS proposals on every later pass.
_MAX_LEVEL = 5
_RETRY_PROPOSALS = 4
_LOG2 = np.log(2.0)

# log2 g -> P(nu <= j), j = 0..g, of the g-fold mixture; filled on first use
_ORDER_CDFS = {}


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
    `gig_rvs(deltas[None, :], tilts[:, None], rng)`, drawn in its
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
        out[~tilted] = gig_rvs(deltas, np.zeros((rows - tilted.sum(), 1)), rng)
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
            blk[:, :k0] = gig_rvs(deltas[:k0], tilts[:, None], rng)
    elif not fast.all():
        slow = ~fast
        blk[slow] = gig_rvs(np.broadcast_to(deltas, slow.shape)[slow],
                            np.broadcast_to(tilts[:, None], slow.shape)[slow], rng)
    if blk is not out:
        out[tilted] = blk
    return out


def _group_weights(g):
    """Numerators P_nu of the exact weights p_nu = P_nu / g**g, nu = 0..g,
    of the untilted g-sum's mixture: the solution of
    (1 + y/g)^g = sum_nu p_nu theta_nu(y)/theta_nu(0). The reverse Bessel
    polynomials theta_nu have integer coefficients, so every p_nu has
    denominator g**g and the triangular solve stays in integers."""
    from math import comb, factorial

    def theta(nu, j):  # coefficient of y^j in theta_nu
        return factorial(2 * nu - j) // (
            factorial(j) * factorial(nu - j) * 2 ** (nu - j))

    q = [0] * (g + 1)  # g**g p_nu / theta_nu(0), top degree first
    for j in range(g, -1, -1):
        q[j] = comb(g, j) * g ** (g - j) - sum(
            q[nu] * theta(nu, j) for nu in range(j + 1, g + 1))
    return [q[nu] * theta(nu, 0) for nu in range(g + 1)]


def _order_cdfs():
    """P(nu <= j), j = 0..g, for g = 2, 4, ..., 2**_MAX_LEVEL keyed by
    log2 g: summed exactly, then rounded, so each table ends at 1.0."""
    if not _ORDER_CDFS:
        from itertools import accumulate
        for level in range(1, _MAX_LEVEL + 1):
            g = 2**level
            cdf = np.array([c / g**g for c in accumulate(_group_weights(g))])
            cdf.flags.writeable = False
            _ORDER_CDFS[level] = cdf
    return _ORDER_CDFS


def _group_levels(omega, copies):
    """log2 of the group size of each entry: the largest power of two
    g <= min(copies, 2**_MAX_LEVEL) with g (omega - log1p omega) <= log 2,
    so a group's tilt rejection accepts at least half its proposals."""
    top = min(copies.bit_length() - 1, _MAX_LEVEL)
    # loss * 2**j <= log 2 holds for j = 1..level: count the bounds
    # log 2 / 2**j (ascending in the array) that loss does not exceed
    bounds = _LOG2 / 2.0 ** np.arange(top, 0, -1)
    return top - bounds.searchsorted(omega - np.log1p(omega))


def _grouped_rejection(level, half_chi2, neg_half_tilt2, rng):
    """One tilted g-sum per entry, g = 2**level, entries sorted by level.

    A proposal draws nu from the g-fold weights (nu = 1 at g = 1) and
    x = g^2 delta^2/2 / Gamma(nu + 1/2); it is kept with probability
    exp(-tilt^2 x/2). The first pass makes one proposal per entry, each
    later pass `_RETRY_PROPOSALS` per pending entry, keeping the first
    accepted.
    """
    cdfs = _order_cdfs()
    scale = half_chi2 * 4.0**level
    out = np.empty(level.size)
    todo = np.arange(level.size)
    tries, passes = 1, 0
    while todo.size:
        if passes == MAX_REJECTION_PASSES:
            raise rejection_cap_error(
                "P-IG grouped tilt rejection", todo.size, group=2 ** level[todo],
                chi=np.sqrt(2.0 * half_chi2[todo]),
                tilt=np.sqrt(-2.0 * neg_half_tilt2[todo]))
        rep = todo if tries == 1 else np.repeat(todo, tries)
        edges = level[rep].searchsorted(np.arange(_MAX_LEVEL + 2))
        shape = np.full(rep.size, 1.5)
        u = rng.random(rep.size - edges[1])
        for j in range(1, _MAX_LEVEL + 1):
            if edges[j + 1] > edges[j]:
                shape[edges[j]:edges[j + 1]] += cdfs[j].searchsorted(
                    u[edges[j] - edges[1]:edges[j + 1] - edges[1]], side="right") - 1
        x = scale[rep] / rng.standard_gamma(shape)
        keep = rng.random(rep.size) <= np.exp(neg_half_tilt2[rep] * x)
        if tries > 1:  # the first accepted proposal of each entry
            keep = keep.reshape(-1, tries)
            first = keep.argmax(axis=1)
            keep = keep[np.arange(todo.size), first]
            x = x.reshape(-1, tries)[np.arange(todo.size), first]
        out[todo[keep]] = x[keep]
        todo = todo[~keep]
        tries = _RETRY_PROPOSALS
        passes += 1
    return out


def _grouped_sums(deltas, tilts, copies, rng):
    """Sum over k of `copies` exact GIG(-3/2, delta_k, tilt_i) draws, one
    per tilt, with term k drawn as copies // g groups of g plus one group
    per binary digit of copies % g (g from `_group_levels`). Entries with
    omega = delta_k * tilt_i > `_OMEGA_SPLIT` stay single and go through
    `gig_rvs` after the grouped rejection.
    """
    rows, kt = tilts.size, deltas.size
    omega = np.ravel(tilts[:, None] * deltas)
    single = omega > _OMEGA_SPLIT
    level = _group_levels(omega, copies)[:, None]
    j = np.arange(_MAX_LEVEL + 1)
    # groups of 2**j terms per cell: the binary digits of copies below the
    # cell's level, and copies >> level at it
    count = np.where(j < level, (copies >> j) & 1, np.where(j == level, copies >> j, 0))
    count[single] = 0
    count = count.T.ravel()  # level-major, so the entries come sorted by level
    cell = np.repeat(np.tile(np.arange(rows * kt), j.size), count)
    vals = _grouped_rejection(np.repeat(np.repeat(j, rows * kt), count),
                              deltas[cell % kt] ** 2 / 2.0,
                              -0.5 * tilts[cell // kt] ** 2, rng)
    if single.any():
        one = np.repeat(np.flatnonzero(single), copies)
        cell = np.concatenate([cell, one])
        vals = np.concatenate([vals, gig_rvs(deltas[one % kt], tilts[one // kt],
                                             rng)])
    return np.bincount(cell // kt, weights=vals, minlength=rows)


def _pig_component_sums(deltas, tilts, rng, copies=1):
    """Sum over k of `copies` exact GIG(-3/2, delta_k, tilt_i) draws, one
    per tilt. From 2**_MAX_LEVEL copies on they are drawn in groups; fewer
    copies are `copies` rows of single draws from `_ladder_gig_block`,
    which costs less there (grouped and single draws take about the same
    time at 16 copies), and `copies` = 1 is exactly its stream."""
    n, kt = tilts.size, deltas.size
    rows_per_chunk = max(1, _CHUNK_ELEMENTS // (kt * copies))
    out = np.empty(n)
    for lo in range(0, n, rows_per_chunk):
        hi = min(n, lo + rows_per_chunk)
        if copies >= 2**_MAX_LEVEL:
            out[lo:hi] = _grouped_sums(deltas, tilts[lo:hi], copies, rng)
        else:
            block = _ladder_gig_block(deltas, np.repeat(tilts[lo:hi], copies), rng)
            out[lo:hi] = block.sum(axis=1).reshape(-1, copies).sum(axis=1)
    return out


def pig_sample_with_tilts(params, tilts, config, rng, copies=1):
    """Batch of P-IG draws sharing the ladder of `params`, one per tilt.

    The workhorse behind the Gibbs updates: each draw is the truncated
    convolution at `config.trunc_terms` plus its exact tail mean. With
    `copies` > 1 each entry is the sum of that many independent draws at
    its tilt (body plus `copies` tail means), drawn in grouped variates
    from 32 copies on; `copies` = 1 draws every term singly, in the order
    `gig_rvs` would.
    """
    tilts = np.abs(np.asarray(tilts, dtype=float))
    if not np.all(np.isfinite(tilts)):
        raise ValueError("tilts must be finite")
    copies = int(copies)
    if copies < 1:
        raise ValueError("copies must be >= 1")
    kt = config.trunc_terms
    deltas = 1.0 / (_SQRT2 * params.d_values(kt))
    body = _pig_component_sums(deltas, np.ravel(tilts), rng,
                               copies).reshape(tilts.shape)
    return body + copies * _tail_mean_ladder(params.shift, kt, tilts)


def pig_sample(params, config, rng, size=None):
    """Exact-in-mean P-IG(d, c) draw(s): truncated convolution + tail mean."""
    n = 1 if size is None else int(size)
    draws = pig_sample_with_tilts(params, np.full(n, params.tilt), config, rng)
    return float(draws[0]) if size is None else draws


def mc_transform(draws, t):
    """Monte-Carlo estimate of E[exp(-w t^2)] with its standard error."""
    vals = np.exp(-(t * t) * np.asarray(draws))
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(vals.size))
