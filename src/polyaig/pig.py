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

Every draw at omega <= `_OMEGA_SPLIT` goes this way. Each ladder term gets
its group sizes once, at its largest omega within the split among the
call's rows, so each group accepts at least half its proposals; the sizes
set only the cost, as each group is an exact draw at its own row's tilt. A
single copy's group is the InvGamma(3/2, beta_k) proposal itself (nu = 1,
no order to draw). Terms above the split are single `gig_rvs` draws.

The order nu of a g-sum is drawn by inverse CDF from a guide table (Chen &
Asau, "On generating random variates from an empirical distribution",
1974): for each of 2**12 equal buckets of the uniform, the first cdf index
above the bucket's lower end, from which a walk forward stops at the first
cdf above u, as `searchsorted` would. The tables of all sizes of a copy
count are stacked, so one gather serves every size. The constants of a
(ladder, copies) pair - the deltas, the omega-split limits, the (size x
term) table of scales g^2 delta_k^2/2 - are computed once and kept.

A call's layout - each group's row, guide row and scale, each single's row
and delta - depends on its tilts only through each term's group column and
which (row, term) cells are within the split, and a chain's calls repeat a
few layouts. So `pig_sample_with_tilts` keeps the 16 layouts
last used (`_LayoutCache`) and looks each call's up by those; a layout of
more than 8192 entries is built on every call. Which layout is found never
changes a draw. A rejection pass after the first gives each of P pending
groups min(4, ceil(1024 / P)) proposals (`_grouped_rejection`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from threading import Lock
from typing import NamedTuple

import numpy as np
from scipy import special as _sp

from .rng import MAX_REJECTION_PASSES, _OMEGA_SPLIT, gig_rvs, rejection_cap_error
from .special import digamma, log_gamma

_SQRT2 = np.array(np.sqrt(2.0))  # 0-d: see `_tail_start`

# Element budget per rejection batch: the grouped path holds about 48 bytes
# of working arrays per (row, term, copy) element, so a chunk needs about
# 50 MB. The draw stream is fixed for a fixed value.
_CHUNK_ELEMENTS = 1_000_000

# Grouped sums: a term takes all its copies in one group up to
# _MAX_WHOLE_GROUP copies (the weight table's build time grows about tenfold
# from 256 to 512), else groups of at most 2**_MAX_LEVEL terms. A retry pass
# over P still-rejected groups gives each min(_RETRY_PROPOSALS,
# ceil(_RETRY_BUDGET / P)) proposals: 4 each up to 341 pending, then 3, 2 and
# from 1024 pending 1, so a pass over many groups draws few more than it needs.
_MAX_WHOLE_GROUP = 256
_MAX_LEVEL = 5
_RETRY_PROPOSALS = 4
_RETRY_BUDGET = 1024
_LOG2 = np.log(2.0)
_POW2 = 2 ** np.arange(_MAX_LEVEL + 1)

# Buckets of the uniform per group size in the order draw's guide table: a
# power of two, so u * _GUIDE and the bucket ends j / _GUIDE are exact.
_GUIDE = 2**12
_GUIDE_0D = np.array(float(_GUIDE))  # 0-d: see `_tail_start`

# g -> P(nu <= j), j = 0..g, of the g-fold mixture; filled on first use
_ORDER_CDFS = {}

# Layouts of grouped draws kept for reuse (`_LayoutCache`): the
# _LAYOUT_SLOTS last used, each of at most _LAYOUT_ENTRIES entries (at most
# 160 KB); larger calls, such as `validate`'s chunks, build theirs each time.
_LAYOUT_SLOTS = 16
_LAYOUT_ENTRIES = 8192


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


@lru_cache(maxsize=16)
def _tail_start(start):
    """start = shift + K and psi(start), once per ladder, as 0-d arrays,
    which numpy combines with small arrays faster than Python floats."""
    return np.array(start), np.array(_sp.psi(start))


def _tail_mean_ladder(shift, trunc_terms, tilts):
    """Exact tail mean sum_{k>K} 1/(2 d_k (d_k + v)) for affine ladders.

    Telescopes to (psi(a + K + v) - psi(a + K)) / (2 v), with the
    polygamma limit at v = 0.
    """
    v = np.asarray(tilts, dtype=float) / _SQRT2
    start, psi_start = _tail_start(shift + trunc_terms)
    if np.count_nonzero(v) == v.size:
        return (_sp.psi(start + v) - psi_start) / (v + v)
    out = np.empty(v.shape)
    zero = v == 0.0
    out[zero] = 0.5 * _sp.polygamma(1, start)
    if (~zero).any():
        vv = v[~zero]
        out[~zero] = (_sp.psi(start + vv) - psi_start) / (vv + vv)
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


class _Groups(NamedTuple):
    """Group sizes of one copy count and their stacked order tables."""

    sizes: np.ndarray  # 1, 2, 4, ... 2**_MAX_LEVEL below copies, then copies
    bound: np.ndarray  # -log 2 / g for g = sizes[1:]
    table: np.ndarray  # (size, column): groups of each size
    low: np.ndarray  # smallest size index of each column
    half_square: np.ndarray  # g^2 / 2
    guide: np.ndarray  # per size, per bucket j: first position with cdf > j / _GUIDE
    cdf: np.ndarray  # each size's P(nu <= j), j = 0..g, then +inf
    order: np.ndarray  # nu + 1/2 at each position of `cdf`


@lru_cache(maxsize=16)  # a guide table of up to 7 sizes is 230 KB
def _group_table(copies):
    """Group sizes for `copies` copies (powers of two below copies, up to
    2**_MAX_LEVEL, then copies up to `_MAX_WHOLE_GROUP`) and their order
    tables. A term at omega takes column c = `bound.searchsorted(log1p(omega)
    - omega, side="right")`, the largest g with g (omega - log1p omega) <=
    log 2, or g = 1, and `table[:, c]` groups of each size: copies // g of g
    and one per binary digit of copies % g; `low[c]` is the smallest of
    them. The order of a g-sum is the first j with P(nu <= j) > u, found by
    `_order_shapes` from the guide row of its size."""
    sizes = _POW2[_POW2 < copies]
    if copies <= _MAX_WHOLE_GROUP:
        sizes = np.append(sizes, copies)
    digit = np.arange(sizes.size)
    table = np.diag(copies // sizes) + np.triu(copies % sizes >> digit[:, None] & 1, 1)
    cdfs = [np.append(_order_cdf(g), np.inf) for g in sizes.tolist()]
    first = np.cumsum([0] + [c.size for c in cdfs[:-1]])
    buckets = np.arange(_GUIDE + 1) / _GUIDE
    guide = np.concatenate([f + c.searchsorted(buckets, side="right")
                            for f, c in zip(first.tolist(), cdfs)])
    groups = _Groups(sizes, -_LOG2 / sizes[1:], table, (table > 0).argmax(axis=0),
                     sizes * sizes / 2.0, guide, np.concatenate(cdfs),
                     np.concatenate([np.arange(c.size) + 0.5 for c in cdfs]))
    for a in groups:
        a.flags.writeable = False
    return groups


def _order_shapes(u, guide_at, groups):
    """nu + 1/2 for uniforms u of g-sums whose size's guide row starts at
    `guide_at`: equal to `_order_cdf(g).searchsorted(u, side="right") + 0.5`.
    The guide gives the first position whose cdf exceeds the lower end of
    u's bucket, so the walk forward stops at the first cdf above u."""
    at = groups.guide[(u * _GUIDE_0D).astype(np.intp) + guide_at]
    walk = (groups.cdf[at] <= u).nonzero()[0]
    while walk.size:
        at[walk] += 1
        walk = walk[groups.cdf[at[walk]] <= u[walk]]
    return groups.order[at]


def _group_proposals(guide_at, scale, groups, rng):
    """One untilted g-sum proposal per entry, x = scale / Gamma(nu + 1/2),
    nu from the g-fold weights of the size at `guide_at`; with no
    `guide_at` (every g = 1, so nu = 1), no order uniform is drawn."""
    if guide_at is None:
        x = rng.standard_gamma(1.5, size=scale.size)
    else:
        u = rng.random(scale.size)
        x = rng.standard_gamma(_order_shapes(u, guide_at, groups))
    return np.divide(scale, x, out=x)


def _grouped_rejection(guide_at, scale, neg_half_tilt2, groups, rng):
    """One tilted g-sum per entry, scale g^2 delta^2/2, of the size whose
    guide row starts at `guide_at` (none: every g = 1), at -tilt^2/2 =
    `neg_half_tilt2` (per entry, or 0-d for one shared tilt).

    A proposal (`_group_proposals`) is kept with probability
    exp(-tilt^2 x/2). The first pass makes one proposal per entry; a later
    pass with P entries pending makes min(`_RETRY_PROPOSALS`,
    ceil(`_RETRY_BUDGET` / P)) per pending entry and keeps each entry's first
    accepted. A few pending entries get 4 each, so that one pass most often
    ends the loop; many get about `_RETRY_BUDGET` proposals in all, as their
    pass costs more per proposal than per pass.
    """
    shared = neg_half_tilt2.ndim == 0
    out = _group_proposals(guide_at, scale, groups, rng)
    accept = neg_half_tilt2 * out
    np.exp(accept, out=accept)
    todo = (rng.random(out.size) > accept).nonzero()[0]
    passes = 1
    while todo.size:
        if passes == MAX_REJECTION_PASSES:
            group = (1 if guide_at is None
                     else groups.sizes[guide_at[todo] // (_GUIDE + 1)])
            raise rejection_cap_error(
                "P-IG grouped tilt rejection", todo.size, group=group,
                chi=np.sqrt(2.0 * scale[todo]) / group, tilt=np.sqrt(
                    -2.0 * (neg_half_tilt2 if shared else neg_half_tilt2[todo])))
        each = min(_RETRY_PROPOSALS, -(-_RETRY_BUDGET // todo.size))
        rep = todo if each == 1 else todo.repeat(each)
        x = _group_proposals(None if guide_at is None else guide_at[rep],
                             scale[rep], groups, rng)
        accept = x * (neg_half_tilt2 if shared else neg_half_tilt2[rep])
        hit = rng.random(rep.size) <= np.exp(accept, out=accept)
        if each > 1:  # the first accepted proposal of each entry (its first if none is)
            first = hit.reshape(-1, each).argmax(axis=1)
            first += np.arange(0, rep.size, each)
            hit, x = hit[first], x[first]
        if np.count_nonzero(hit) == hit.size:  # the pass ends the loop
            out[todo] = x
            return out
        out[todo[hit]] = x[hit]
        todo = todo[~hit]
        passes += 1
    return out


def _ladder_constants(deltas, copies):
    """What `_ladder_sums` reads of a ladder and a copy count: the deltas,
    the omega-split limits split / delta_k, the copies, their groups, the
    (size, term) table of scales g^2 delta_k^2 / 2, the smallest limit and
    the copies as a 0-d float (see `_tail_start`)."""
    groups = _group_table(copies)
    limit = _OMEGA_SPLIT / deltas
    return (deltas, limit, copies, groups,
            np.multiply.outer(groups.half_square, deltas**2), limit.min(),
            np.array(float(copies)))


@lru_cache(maxsize=16)
def _ladder(shift, trunc_terms, copies):
    """`_ladder_constants` of the affine ladder, computed once."""
    d = shift + np.arange(trunc_terms, dtype=float)
    return _ladder_constants(1.0 / (_SQRT2 * d), copies)


class _Layout(NamedTuple):
    """Where a call's draws go, read from its shape and not from its tilts:
    grouped entries in (size, row, term) order, then the singles."""

    row: np.ndarray  # each entry's row, the index `np.bincount` sums over
    grouped: int  # entries that are groups; the rest are singles
    guide_at: np.ndarray | None  # each group's guide row (`_order_shapes`), int32
    scale: np.ndarray  # each group's g^2 delta^2 / 2
    delta: np.ndarray  # delta of each cell above the split; its `copies` singles follow


def _columns(tilts, ladder):
    """Each term's column of the group table (`_group_table`): sized at its
    largest omega <= the split among the rows; a term with no tilt within
    its limit reads the largest, which gives single copies."""
    deltas, limit, _, groups, _, _, _ = ladder
    top = np.sort(tilts)
    top = top[top.searchsorted(limit, side="right") - 1] * deltas
    return groups.bound.searchsorted(np.log1p(top) - top, side="right")


def _entry_layout(rows, keep, col, ladder):
    """The `_Layout` of the (row, term) cells in `keep` (None: all of them)
    drawn in groups of the sizes of their term's column, the others as
    `copies` singles."""
    deltas, _, copies, groups, scales, _, _ = ladder
    if keep is None:
        keep = np.ones((rows, deltas.size), dtype=bool)
    lo, hi = groups.low[col.min()], col.max() + 1  # sizes in use; low rises with c
    # groups of each (size, row, term)
    count = groups.table[lo:hi].take(col, axis=1)[:, None, :] * keep
    per = count.sum(axis=2)
    row = (np.arange(per.size) % rows).repeat(per.ravel())
    scale = np.repeat(scales[lo:hi], rows, axis=0).ravel().repeat(count.ravel())
    guide_at = None
    if hi > 1:  # a term sized above one copy has such a group at its top tilt
        guide_at = np.arange(lo, hi, dtype=np.int32) * (_GUIDE + 1)
        guide_at = guide_at.repeat(per.sum(axis=1))
    one_row, one_term = np.divmod(np.flatnonzero(~keep), deltas.size)
    joined = np.concatenate((row, one_row.repeat(copies)))
    if rows == 1:  # every entry sums into row 0: a zero-stride view holds them
        joined = np.broadcast_to(np.intp(0), joined.size)
    layout = _Layout(joined, row.size, guide_at, scale, deltas[one_term])
    for a in (joined, guide_at, scale, layout.delta):
        if a is not None:
            a.flags.writeable = False
    return layout


class _LayoutCache:
    """The `slots` layouts last used, each kept only if it has at most
    `entries` entries; a miss builds the layout (`_entry_layout`)."""

    def __init__(self, slots, entries):
        self.slots, self.entries = slots, entries
        self._kept = OrderedDict()
        self._lock = Lock()

    def __len__(self):
        return len(self._kept)

    def get(self, key, *cells):
        with self._lock:
            layout = self._kept.get(key)
            if layout is not None:
                self._kept.move_to_end(key)
                return layout
        layout = _entry_layout(*cells)
        if layout.row.size <= self.entries:
            with self._lock:
                self._kept[key] = layout
                if len(self._kept) > self.slots:
                    self._kept.popitem(last=False)
        return layout


_LAYOUTS = _LayoutCache(_LAYOUT_SLOTS, _LAYOUT_ENTRIES)


def _ladder_sums(ladder, tilts, rng, key=None):
    """Sum over k of `copies` exact GIG(-3/2, delta_k, tilt_i) draws, one
    per tilt: grouped draws, then single `gig_rvs` draws where omega =
    delta_k * tilt_i > `_OMEGA_SPLIT`, summed by `np.bincount` in draw
    order (one row: `np.add.reduce`). With a ladder `key`, the layout is
    looked up in `_LAYOUTS` by the key, the row count,
    each term's column and which cells are grouped (None: every cell, when
    no tilt exceeds the smallest limit, so each term's top tilt is the
    largest). A layout has at least one entry a cell, so a call of more
    cells than the cache keeps entries builds its own without a key."""
    deltas, limit, copies, groups, _, lowest, _ = ladder
    top = tilts.max()
    if not top < np.inf:  # false for a NaN too
        raise ValueError("tilts must be finite")
    if top <= lowest:
        keep, top = None, top * deltas
        col = groups.bound.searchsorted(np.log1p(top) - top, side="right")
    else:  # omega <= the split, as tilt <= split / delta
        keep, col = tilts[:, None] <= limit, _columns(tilts, ladder)
    cells = (tilts.size, keep, col, ladder)
    if key is None or tilts.size * deltas.size > _LAYOUTS.entries:
        layout = _entry_layout(*cells)
    else:
        layout = _LAYOUTS.get((*key, tilts.size, col.tobytes(),
                               None if keep is None else keep.tobytes()), *cells)
    row, n = layout.row, layout.grouped
    one_row = tilts.size == 1  # 0-d tilt factors, with no gather over `row`
    neg = -0.5 * tilts**2
    neg = neg.reshape(()) if one_row else neg[row[:n]]
    draws = _grouped_rejection(layout.guide_at, layout.scale, neg, groups, rng)
    if n < row.size:
        single = tilts if one_row else tilts[row[n:]]
        draws = np.concatenate((draws, gig_rvs(layout.delta.repeat(copies), single, rng)))
    if one_row:
        return np.add.reduce(draws, keepdims=True)
    return np.bincount(row, draws, minlength=tilts.size)


def _grouped_sums(deltas, tilts, copies, rng):
    """`_ladder_sums` for any deltas, not only an affine ladder's; its
    layouts are not kept."""
    return _ladder_sums(_ladder_constants(deltas, copies), tilts, rng)


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
    _check_count(copies, "copies")
    copies = int(copies)
    kt = config.trunc_terms
    key = (params.shift, kt, copies)
    ladder = _ladder(*key)
    flat = tilts.ravel()
    step = max(1, _CHUNK_ELEMENTS // (kt * copies))
    chunks = range(0, flat.size, step)
    if len(chunks) == 1:
        body = _ladder_sums(ladder, flat, rng, key)
    else:
        body = np.empty(flat.size)
        for lo in chunks:
            body[lo:lo + step] = _ladder_sums(ladder, flat[lo:lo + step], rng, key)
    tail = _tail_mean_ladder(params.shift, kt, tilts)
    return body.reshape(tilts.shape) + ladder[-1] * tail


def pig_sample(params, config, rng, size):
    """`size` exact-in-mean P-IG(d, c) draws: truncated convolution + tail mean."""
    return pig_sample_with_tilts(params, np.full(int(size), params.tilt), config, rng)


def mc_transform(draws, t):
    """Monte-Carlo estimate of E[exp(-w t^2)] with its standard error."""
    vals = np.exp(-(t * t) * np.asarray(draws))
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(vals.size))
