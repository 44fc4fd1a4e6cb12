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

Every draw goes this way: a single draw is the sum of one copy, whose
groups of g = 1 are the InvGamma(3/2, beta_k) proposal itself (nu = 1, no
order to draw). Terms with omega > 2 are single `gig_rvs` draws instead,
which need no rejection loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .rng import MAX_REJECTION_PASSES, _OMEGA_SPLIT, gig_rvs, rejection_cap_error
from .special import digamma, log_gamma

_SQRT2 = np.sqrt(2.0)

# Element budget per rejection batch: the grouped path holds about 48 bytes
# of working arrays per (row, term, copy) element, so a chunk needs about
# 50 MB. The draw stream is fixed for a fixed value.
_CHUNK_ELEMENTS = 1_000_000

# Grouped sums: a cell takes all its copies in one group up to
# _MAX_WHOLE_GROUP copies (the weight table's build time grows about tenfold
# from 256 to 512), else groups of at most 2**_MAX_LEVEL terms; a
# still-rejected group gets _RETRY_PROPOSALS proposals on every later pass.
_MAX_WHOLE_GROUP = 256
_MAX_LEVEL = 5
_RETRY_PROPOSALS = 4
_LOG2 = np.log(2.0)
_LEVELS = np.arange(_MAX_LEVEL + 1)[:, None]
_POW2 = 2 ** _LEVELS.ravel()
# a 2**j group passes when its loss is at most log 2 / 2**j; ascending
_LEVEL_BOUNDS = _LOG2 / _POW2[:0:-1]

# g -> P(nu <= j), j = 0..g, of the g-fold mixture; filled on first use
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


def _group_weights(g):
    """Numerators P_nu of the exact weights p_nu = P_nu / g**g, nu = 0..g,
    of the untilted g-sum's mixture: the solution of
    (1 + y/g)^g = sum_nu p_nu theta_nu(y)/theta_nu(0). The reverse Bessel
    polynomials theta_nu have integer coefficients, so every p_nu has
    denominator g**g and the triangular solve stays in integers. The
    recurrence theta_{n+1} = (2n+1) theta_n + y^2 theta_{n-1} runs forward
    to theta_g, then back down as the solve needs each theta_nu."""
    from math import comb

    lo, hi = [1], [1, 1]  # theta_0, theta_1, ascending powers of y
    for n in range(1, g):
        lo, hi = hi, [(2 * n + 1) * a + b for a, b in zip(hi + [0], [0, 0] + lo)]
    rest = [comb(g, j) * g ** (g - j) for j in range(g + 1)]
    out = [0] * (g + 1)
    for nu in range(g, -1, -1):  # hi = theta_nu (leading coefficient 1)
        q = rest[nu]  # g**g p_nu / theta_nu(0)
        out[nu] = q * hi[0]
        rest[:nu] = [r - q * t for r, t in zip(rest[:nu], hi)]
        if nu >= 2:  # theta_{nu-2} = (theta_nu - (2 nu - 1) theta_{nu-1}) / y^2
            lo, hi = [a - (2 * nu - 1) * b for a, b in zip(hi, lo + [0])][2:], lo
        else:
            hi = lo
    return out


def _order_cdf(g):
    """P(nu <= j), j = 0..g, of the g-fold mixture, built on first use:
    summed exactly, then rounded, so the table ends at 1.0."""
    cdf = _ORDER_CDFS.get(g)
    if cdf is None:
        from itertools import accumulate
        cdf = np.array([c / g**g for c in accumulate(_group_weights(g))])
        cdf.flags.writeable = False
        _ORDER_CDFS[g] = cdf
    return cdf


def _group_sizes(omega, copies):
    """Terms per group in each cell, chosen so that a group's tilt rejection
    accepts at least half its proposals, g (omega - log1p omega) <= log 2:
    all `copies` where that holds and copies <= `_MAX_WHOLE_GROUP`, else the
    largest power of two g <= min(copies, 2**_MAX_LEVEL) where it holds."""
    loss = omega - np.log1p(omega)
    size = np.full(omega.size, copies)
    part = (copies * loss > _LOG2) | (copies > _MAX_WHOLE_GROUP)
    if part.any():
        top = min(copies.bit_length() - 1, _MAX_LEVEL)
        # levels 1..top whose bound loss exceeds
        above = _LEVEL_BOUNDS[_MAX_LEVEL - top:].searchsorted(loss[part])
        size[part] = _POW2[top - above]
    return size


def _group_entries(size, copies):
    """Cell, size and the distinct sizes > 1 of every group, sorted by size:
    a cell of size g < copies (a power of two) takes copies // g groups of g
    plus one group per binary digit of copies % g, then each cell of size
    copies takes one group; a cell of size 0 takes none."""
    part = ((size > 0) & (size < copies)).nonzero()[0]
    whole = (size == copies).nonzero()[0]
    level = _POW2.searchsorted(size[part])
    per = copies >> _LEVELS
    count = np.where(_LEVELS < level, per & 1, (_LEVELS == level) * per)  # size-major
    every = np.concatenate((_POW2, [copies]))
    total = np.concatenate((count.sum(axis=1), [whole.size]))
    cell = part[None, :].repeat(_LEVELS.size, axis=0).ravel().repeat(count.ravel())
    return (np.concatenate((cell, whole)), every.repeat(total),
            every[(total > 0) & (every > 1)].tolist())


def _group_proposals(group, sizes, scale, rng):
    """One untilted g-sum proposal per entry, entries sorted by g = `group`:
    nu from the g-fold weights (nu = 1 at g = 1) and x = scale / Gamma(nu +
    1/2). `sizes` lists the distinct g > 1, ascending, or is [1] when every
    entry is a single copy, which draws no order uniform."""
    if sizes == [1]:
        x = rng.standard_gamma(1.5, size=group.size)
    else:
        u = rng.random(group.size)  # g = 1 entries leave theirs unused
        shape = np.full(group.size, 1.5)
        edges = group.searchsorted(sizes).tolist() + [group.size]
        for g, lo, hi in zip(sizes, edges, edges[1:]):
            shape[lo:hi] = _order_cdf(g).searchsorted(u[lo:hi], side="right") + 0.5
        x = rng.standard_gamma(shape)
    return np.divide(scale, x, out=x)


def _grouped_rejection(group, sizes, scale, neg_half_tilt2, rng):
    """One tilted g-sum per entry, g = `group` sorted, `sizes` its distinct
    values > 1, scale g^2 delta^2/2.

    A proposal (`_group_proposals`) is kept with probability
    exp(-tilt^2 x/2). The first pass makes one proposal per entry, each
    later pass `_RETRY_PROPOSALS` per pending entry, keeping the first
    accepted.
    """
    out = _group_proposals(group, sizes, scale, rng)
    accept = neg_half_tilt2 * out
    np.exp(accept, out=accept)
    todo = (rng.random(group.size) > accept).nonzero()[0]
    passes = 1
    while todo.size:
        if passes == MAX_REJECTION_PASSES:
            raise rejection_cap_error(
                "P-IG grouped tilt rejection", todo.size, group=group[todo],
                chi=np.sqrt(2.0 * scale[todo]) / group[todo],
                tilt=np.sqrt(-2.0 * neg_half_tilt2[todo]))
        rep = todo.repeat(_RETRY_PROPOSALS)
        x = _group_proposals(group[rep], sizes, scale[rep], rng)
        keep = (rng.random(rep.size) <= np.exp(neg_half_tilt2[rep] * x)).reshape(
            -1, _RETRY_PROPOSALS)
        first = keep.argmax(axis=1)  # the first accepted proposal of each entry
        pick = np.arange(todo.size), first
        hit = keep[pick]
        out[todo[hit]] = x.reshape(-1, _RETRY_PROPOSALS)[pick][hit]
        todo = todo[~hit]
        passes += 1
    return out


def _grouped_sums(deltas, tilts, copies, rng):
    """Sum over k of `copies` exact GIG(-3/2, delta_k, tilt_i) draws, one
    per tilt. Entries with omega = delta_k * tilt_i > `_OMEGA_SPLIT` stay
    single, drawn by `gig_rvs` last. Every other cell is one group, in cell
    order and with no group table, when `copies` = 1 or when the largest
    omega takes one whole group under the rule of `_group_sizes` (then every
    cell does, and none is above the split); else it takes those groups."""
    rows, kt = tilts.size, deltas.size
    half_chi2, neg_half_tilt2 = deltas**2 / 2.0, -0.5 * tilts**2
    single = tilts[:, None] * deltas > _OMEGA_SPLIT
    top = tilts.max() * deltas.max()
    whole = copies <= _MAX_WHOLE_GROUP and copies * (top - np.log1p(top)) <= _LOG2
    if copies == 1 or whole:
        keep = ~single
        count = keep.sum(axis=1)
        row, neg = np.arange(rows).repeat(count), neg_half_tilt2.repeat(count)
        scale = np.broadcast_to(half_chi2 * (copies * copies), keep.shape)[keep]
        group, sizes = np.broadcast_to(copies, row.shape), [copies]
    else:
        size = _group_sizes((tilts[:, None] * deltas).ravel(), copies)
        size[single.ravel()] = 0
        cell, group, sizes = _group_entries(size, copies)
        row, term = np.divmod(cell, kt)
        scale, neg = half_chi2[term] * (group * group), neg_half_tilt2[row]
    vals = _grouped_rejection(group, sizes, scale, neg, rng)
    if single.any():
        one_row, one_term = (i.repeat(copies) for i in single.nonzero())
        row = np.concatenate((row, one_row))
        vals = np.concatenate((vals, gig_rvs(deltas[one_term], tilts[one_row], rng)))
    return np.bincount(row, vals, minlength=rows)


def pig_sample_with_tilts(params, tilts, config, rng, copies=1):
    """Batch of P-IG draws sharing the ladder of `params`, one per tilt.

    The workhorse behind the Gibbs updates: each draw is the truncated
    convolution at `config.trunc_terms` plus its exact tail mean. Each
    entry is the sum of `copies` independent draws at its tilt (body plus
    `copies` tail means), term k drawn in grouped variates; `copies` = 1 is
    one group of one copy per term. Rows go in chunks of at most
    `_CHUNK_ELEMENTS` (row, term, copy) elements.
    """
    tilts = np.abs(np.asarray(tilts, dtype=float))
    if not np.isfinite(tilts).all():
        raise ValueError("tilts must be finite")
    copies = int(copies)
    if copies < 1:
        raise ValueError("copies must be >= 1")
    kt = config.trunc_terms
    deltas = 1.0 / (_SQRT2 * params.d_values(kt))
    flat = tilts.ravel()
    body = np.empty(flat.size)
    step = max(1, _CHUNK_ELEMENTS // (kt * copies))
    for lo in range(0, flat.size, step):
        body[lo:lo + step] = _grouped_sums(deltas, flat[lo:lo + step], copies, rng)
    tail = _tail_mean_ladder(params.shift, kt, tilts)
    return body.reshape(tilts.shape) + copies * tail


def pig_sample(params, config, rng, size=None):
    """Exact-in-mean P-IG(d, c) draw(s): truncated convolution + tail mean."""
    n = 1 if size is None else int(size)
    draws = pig_sample_with_tilts(params, np.full(n, params.tilt), config, rng)
    return float(draws[0]) if size is None else draws


def mc_transform(draws, t):
    """Monte-Carlo estimate of E[exp(-w t^2)] with its standard error."""
    vals = np.exp(-(t * t) * np.asarray(draws))
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(vals.size))
