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

Every draw goes this way. Each ladder term gets its group sizes once, at
the largest omega <= 2 among the call's rows, so that each group accepts
at least half its proposals; the sizes set only the cost, as each group is
an exact draw at its own row's tilt. A single copy's group is the
InvGamma(3/2, beta_k) proposal itself (nu = 1, no order to draw). Terms
with omega > 2 are single `gig_rvs` draws, with no rejection loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special as _sp

from .rng import MAX_REJECTION_PASSES, _OMEGA_SPLIT, gig_rvs, rejection_cap_error
from .special import digamma, log_gamma

_SQRT2 = np.sqrt(2.0)

# Element budget per rejection batch: the grouped path holds about 48 bytes
# of working arrays per (row, term, copy) element, so a chunk needs about
# 50 MB. The draw stream is fixed for a fixed value.
_CHUNK_ELEMENTS = 1_000_000

# Grouped sums: a term takes all its copies in one group up to
# _MAX_WHOLE_GROUP copies (the weight table's build time grows about tenfold
# from 256 to 512), else groups of at most 2**_MAX_LEVEL terms; a
# still-rejected group gets _RETRY_PROPOSALS proposals on every later pass.
_MAX_WHOLE_GROUP = 256
_MAX_LEVEL = 5
_RETRY_PROPOSALS = 4
_LOG2 = np.log(2.0)
_POW2 = 2 ** np.arange(_MAX_LEVEL + 1)

# g -> P(nu <= j), j = 0..g, of the g-fold mixture; filled on first use
_ORDER_CDFS = {}


def _check_count(value, name):
    if not (isinstance(value, (int, np.integer)) and value >= 1):
        raise ValueError(f"{name} must be an integer >= 1, not {value!r}")


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
        _check_count(terms, "terms")
        return self.shift + np.arange(terms, dtype=float)


@dataclass(frozen=True)
class PigSamplerConfig:
    """Truncation budget for the convolution sampler.

    `trunc_terms` exact components are drawn; the mean of everything past
    them is added deterministically.
    """

    trunc_terms: int = 200

    def __post_init__(self):
        _check_count(self.trunc_terms, "trunc_terms")


def pig_laplace_product(params, t, terms):
    """Truncated-product evaluation of E[exp(-w t^2)], in log space."""
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


@lru_cache(maxsize=None)
def _group_table(copies):
    """Group sizes for `copies` copies (powers of two below copies, up to
    2**_MAX_LEVEL, then copies up to `_MAX_WHOLE_GROUP`) and their g^2/2. A
    term at omega takes size c = `bound.searchsorted(log1p(omega) - omega,
    side="right")`, the largest g with g (omega - log1p omega) <= log 2, or
    g = 1, and `table[:, c]` groups of each size: copies // g of g and one
    per binary digit of copies % g; `low[c]` is the smallest of them."""
    sizes = _POW2[_POW2 < copies]
    if copies <= _MAX_WHOLE_GROUP:
        sizes = np.append(sizes, copies)
    digit = np.arange(sizes.size)
    table = np.diag(copies // sizes) + np.triu(copies % sizes >> digit[:, None] & 1, 1)
    low = (table > 0).argmax(axis=0)
    sizes.flags.writeable = table.flags.writeable = low.flags.writeable = False
    return sizes, -_LOG2 / sizes[1:], table, low, sizes * sizes / 2.0


def _group_proposals(sizes, edges, scale, rng):
    """One untilted g-sum proposal per entry, x = scale / Gamma(nu + 1/2),
    nu from the g-fold weights: edges[i]:edges[i + 1] have g = sizes[i] > 1,
    the others g = 1 (nu = 1); with no `sizes`, no order uniform is drawn."""
    if not sizes:
        x = rng.standard_gamma(1.5, size=scale.size)
    else:
        u = rng.random(scale.size)  # single copies leave theirs unused
        shape = np.full(scale.size, 1.5)
        for g, lo, hi in zip(sizes, edges, edges[1:]):
            shape[lo:hi] = _order_cdf(g).searchsorted(u[lo:hi], side="right") + 0.5
        x = rng.standard_gamma(shape)
    return np.divide(scale, x, out=x)


def _grouped_rejection(sizes, counts, scale, neg_half_tilt2, rng):
    """One tilted g-sum per entry, scale g^2 delta^2/2: the entries come in
    blocks of counts[i] g-sums of g = sizes[i], ascending.

    A proposal (`_group_proposals`) is kept with probability
    exp(-tilt^2 x/2). The first pass makes one proposal per entry, each
    later pass `_RETRY_PROPOSALS` per pending entry, keeping the first
    accepted.
    """
    groups, starts, end = [], [], 0  # the blocks of g > 1
    for g, n in zip(sizes.tolist(), counts.tolist()):
        if g > 1 and n:
            groups.append(g)
            starts.append(end)
        end += n
    out = _group_proposals(groups, starts + [end], scale, rng)
    accept = neg_half_tilt2 * out
    np.exp(accept, out=accept)
    todo = (rng.random(end) > accept).nonzero()[0]
    passes = 1
    while todo.size:
        if passes == MAX_REJECTION_PASSES:
            group = sizes.repeat(counts)[todo]
            raise rejection_cap_error(
                "P-IG grouped tilt rejection", todo.size, group=group,
                chi=np.sqrt(2.0 * scale[todo]) / group,
                tilt=np.sqrt(-2.0 * neg_half_tilt2[todo]))
        rep = todo.repeat(_RETRY_PROPOSALS)
        edges = rep.searchsorted(starts).tolist() + [rep.size] if groups else []
        x = _group_proposals(groups, edges, scale[rep], rng)
        accept = neg_half_tilt2[rep]
        accept *= x
        keep = rng.random(rep.size) <= np.exp(accept, out=accept)
        # the first accepted proposal of each entry (its first if none is)
        first = keep.reshape(-1, _RETRY_PROPOSALS).argmax(axis=1)
        first += np.arange(0, rep.size, _RETRY_PROPOSALS)
        hit = keep[first]
        out[todo[hit]] = x[first[hit]]
        todo = todo[~hit]
        passes += 1
    return out


def _entry_groups(deltas, tilts, copies, keep, limit):
    """Row, sizes, groups per size, scale g^2 delta^2/2 and -tilt^2/2 of the
    groups of the entries in `keep`, in (size, row, term) order, each term
    sized at its largest omega <= the split (working arrays die on return)."""
    rows = tilts.size
    # a term with no tilt within `limit` reads the largest: single copies
    top = np.sort(tilts)
    top = top[top.searchsorted(limit, side="right") - 1] * deltas
    sizes, bound, table, low, half_square = _group_table(copies)
    col = bound.searchsorted(np.log1p(top) - top, side="right")
    lo, hi = low[col.min()], col.max() + 1  # sizes in use; low rises with c
    count = table[lo:hi].take(col, axis=1)[:, None, :] * keep  # (size, row, term)
    per = count.sum(axis=2).ravel()
    scale = np.repeat(np.multiply.outer(half_square[lo:hi], deltas**2), rows, axis=0)
    row = (np.arange(per.size) % rows).repeat(per)
    return (row, sizes[lo:hi], per.reshape(-1, rows).sum(axis=1),
            scale.ravel().repeat(count.ravel()), (-0.5 * tilts**2)[row])


def _grouped_sums(deltas, tilts, copies, rng):
    """Sum over k of `copies` exact GIG(-3/2, delta_k, tilt_i) draws, one
    per tilt: grouped draws (`_entry_groups`), then single `gig_rvs` draws
    where omega = delta_k * tilt_i > `_OMEGA_SPLIT`, summed in draw order."""
    limit = _OMEGA_SPLIT / deltas
    keep = tilts[:, None] <= limit  # omega <= the split, as tilt <= split / delta
    row, *groups = _entry_groups(deltas, tilts, copies, keep, limit)
    # bincount returns integers when there is no group at all
    out = np.bincount(row, _grouped_rejection(*groups, rng),
                      minlength=tilts.size).astype(float, copy=False)
    if not keep.all():
        one_row, one_term = np.divmod(np.flatnonzero(~keep).repeat(copies), deltas.size)
        np.add.at(out, one_row, gig_rvs(deltas[one_term], tilts[one_row], rng))
    return out


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
    _check_count(copies, "copies")
    copies = int(copies)
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
