"""The lean paths of the samplers against test-only copies of the longer
code they replaced: equal draws and the generator left in the same state.

* `pig._ladder_sums` keys a call whose tilts are all within the smallest
  omega-split limit by its columns and runs alone, and gives a one-row call
  0-d tilt factors; `general_key_sums` builds every layout from the omega
  <= split mask, `pig._columns`'s term columns and runs chosen one block at
  a time (`reference_runs`), and gathers a tilt factor per entry.
* `pig._grouped_rejection` ends at once on a retry pass that accepts every
  pending entry and skips the first-accepted search on a pass of one
  proposal per entry; `reference_grouped_rejection` runs the general update.
* `rng.gig_rvs` hands a call whose entries are all above the split
  straight to its rejection-free branch; `masked_gig_rvs` masks every call.
* `rng.truncated_normal_sample` computes the inverse CDF in its own
  log-scale form; `reference_truncated_normal` takes scipy's
  `truncnorm.ppf` at the same uniforms, and the alpha kernel is checked
  with it in place. These two agree to rounding, not bit for bit.
"""

from functools import partial

import numpy as np
import pytest
from scipy import stats

from polyaig import dirichlet, pig
from polyaig.pig import PigParams, PigSamplerConfig, pig_sample_with_tilts
from polyaig import rng as _rng
from polyaig.rng import _OMEGA_SPLIT, gig_rvs, make_rng, truncated_normal_sample
from test_pig import CHAIN_CALLS, edge_tilt


def reference_runs(ladder, keep, tilts):
    """Which of the ladder's blocks are runs, one block at a time: every
    cell of it within the split (`keep`), and copies * sum of (omega - log1p
    omega) at the call's top tilt at most log 2."""
    ends = [*ladder.starts.tolist()[1:], ladder.stop]
    runs = []
    for a, b in zip(ladder.starts.tolist(), ends):
        omega = tilts.max() * ladder.deltas[a:b]
        loss = sum((o - np.log1p(o)).item() for o in omega)
        runs.append(bool(keep[:, a:b].all()) and ladder.copies * loss <= np.log(2.0))
    return np.array(runs, dtype=bool)


def general_key_sums(ladder, tilts, rng, key=None, runs=reference_runs):
    """`pig._ladder_sums` with each layout built, uncached, from the
    omega <= split mask, `pig._columns`'s term columns and the runs of
    `runs(ladder, keep, tilts)`, and a tilt factor gathered for every entry,
    also in a one-row call."""
    keep = tilts[:, None] <= ladder.limit
    col, _ = pig._columns(tilts, ladder)
    layout = pig._entry_layout(tilts.size, keep, col, runs(ladder, keep, tilts), ladder)
    row, n = layout.row, layout.grouped
    draws = pig._grouped_rejection(layout.guide_at, layout.scale,
                                   (-0.5 * tilts**2)[row[:n]], ladder, rng)
    if n < row.size:
        one = gig_rvs(layout.delta.repeat(ladder.copies), tilts[row[n:]], rng)
        draws = np.concatenate((draws, one))
    if tilts.size == 1:  # summed in the order `pig._ladder_sums` sums one row
        return np.add.reduce(draws, keepdims=True)
    return np.bincount(row, draws, minlength=tilts.size)


def reference_grouped_rejection(guide_at, scale, neg_half_tilt2, ladder, rng):
    """`pig._grouped_rejection` with every pass ending in the general
    bookkeeping, also the pass that accepts every pending entry and a pass
    of one proposal per entry."""
    out = pig._group_proposals(guide_at, scale, ladder, rng)
    todo = (rng.random(out.size) > np.exp(neg_half_tilt2 * out)).nonzero()[0]
    while todo.size:
        each = min(pig._RETRY_PROPOSALS, -(-pig._RETRY_BUDGET // todo.size))
        rep = todo.repeat(each)
        x = pig._group_proposals(None if guide_at is None else guide_at[rep],
                                 scale[rep], ladder, rng)
        keep = rng.random(rep.size) <= np.exp(neg_half_tilt2[rep] * x)
        first = keep.reshape(-1, each).argmax(axis=1) + np.arange(0, rep.size, each)
        hit = keep[first]
        out[todo[hit]] = x[first[hit]]
        todo = todo[~hit]
    return out


def masked_gig_rvs(chi, tilt, rng):
    """`rng.gig_rvs` with every call going through the branch masks."""
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
        out[fast] = _rng._tilt_rejection(chi[fast], tilt[fast], rng)
    if slow.any():
        out[slow] = _rng._inverse_size_biased(chi[slow], omega[slow], rng)
    return out.reshape(shape)


def reference_truncated_normal(mean, variance, lower, rng):
    """`truncated_normal_sample` by scipy's truncated-normal inverse CDF,
    one uniform per entry in index order."""
    sd = np.sqrt(variance)
    a = (lower - mean) / sd
    u = rng.random(a.shape)
    return np.maximum(mean + sd * stats.truncnorm.ppf(u, a, np.inf), lower)


class Tampered:
    """A generator whose first `random` call with a size has its uniforms
    changed in place by `edit`; all else is `make_rng(seed)`'s."""

    def __init__(self, seed, edit=None):
        self._rng = make_rng(seed)
        self._edit = edit

    def random(self, size=None):
        u = self._rng.random(size)
        if self._edit is not None and size is not None:
            self._edit(u)
            self._edit = None
        return u

    def __getattr__(self, name):
        return getattr(self._rng, name)


# the smallest omega-split limit, split / delta_1, of the integer ladder
LIMIT = pig._ladder(1.0, 200, 1).lowest
# tilts just inside and just outside the acceptance edge of a run: block 1
# of 6 copies (terms 5-8), block 2 of one copy (terms 65-96)
EDGE_6, EDGE_1 = edge_tilt(6, 1), edge_tilt(1, 2)
KEY_CASES = CHAIN_CALLS + [
    (np.array([[LIMIT, 0.5, 2.0]]), 6),  # every cell within the split: columns only
    (np.array([[np.nextafter(LIMIT, np.inf), 0.5, 2.0]]), 6),  # term 1 above it
    (np.array([LIMIT]), 36),
    (np.array([np.nextafter(LIMIT, np.inf)]), 36),
    *[(np.array([[t, 0.3, 0.0]]), 6) for t in EDGE_6 * np.array([1 - 1e-9, 1 + 1e-9])],
    *[(np.array([t, 2.0]), 1) for t in EDGE_1 * np.array([1 - 1e-9, 1 + 1e-9])],
    (np.zeros(3), 16),  # every block a run
    (np.array([0.5, 0.0]), 17),  # no blocks
]


@pytest.mark.parametrize("tilts, copies", KEY_CASES)
def test_layout_key_matches_the_general_rule(tilts, copies, monkeypatch):
    params, cfg = PigParams(), PigSamplerConfig(trunc_terms=200)
    cache = pig._LayoutCache(pig._LAYOUT_SLOTS, pig._LAYOUT_ENTRIES)
    monkeypatch.setattr(pig, "_LAYOUTS", cache)

    def run():
        rng = make_rng(copies)
        draws = [pig_sample_with_tilts(params, tilts, cfg, rng, copies=copies)
                 for _ in range(20)]
        return np.array(draws), rng.bit_generator.state

    got, got_state = run()
    # the columns-only key is taken exactly when no tilt exceeds the limit
    (key,) = cache._kept
    assert (key[-1] is None) == (tilts.max() <= LIMIT)
    monkeypatch.setattr(pig, "_ladder_sums", general_key_sums)
    monkeypatch.setattr(pig, "_grouped_rejection", reference_grouped_rejection)
    want, want_state = run()
    assert np.array_equal(got, want) and got_state == want_state


@pytest.mark.parametrize("tilts, copies", [c for c in KEY_CASES if c[1] > 16])
def test_more_than_16_copies_keep_the_layout_without_runs(tilts, copies, monkeypatch):
    # no block can hold two terms of more than 16 copies: the ladder builds
    # no run table, and every call draws what a layout of groups of one
    # term each draws, leaving the generator in the same state
    ladder = pig._ladder(1.0, 200, copies)
    assert ladder.starts.size == 0 and ladder.run_scale.size == 0
    assert all(parts == (1,) for parts, _ in ladder.kinds)
    params, cfg = PigParams(), PigSamplerConfig(trunc_terms=200)

    def run():
        rng = make_rng(copies)
        draws = [pig_sample_with_tilts(params, tilts, cfg, rng, copies=copies)
                 for _ in range(20)]
        return np.array(draws), rng.bit_generator.state

    got, got_state = run()
    monkeypatch.setattr(pig, "_ladder_sums", partial(
        general_key_sums, runs=lambda ladder, keep, tilts: np.zeros(0, dtype=bool)))
    want, want_state = run()
    assert np.array_equal(got, want) and got_state == want_state


# (chi, tilt) with every omega above the split: 0-d, a P-IG call's singles
# (a ladder's deltas at one 0-d tilt, the lowest just above the split),
# broadcast (3, 1) x (1, 4), full (3, 4), and no entries
ABOVE = np.nextafter(_OMEGA_SPLIT, np.inf)
GIG_CASES = {
    "0-d": (np.array(0.5), np.array(9.0)),
    "singles": ((1.0 / np.arange(1, 10)).repeat(201), np.array(9 * ABOVE)),
    "broadcast": (np.linspace(0.2, 0.7, 3)[:, None],
                  np.array([[8.0, 9.0, 40.0, 300.0]])),
    "full": (np.full((3, 4), 0.5), np.linspace(2 * ABOVE, 80.0, 12).reshape(3, 4)),
    "empty": (np.zeros(0), np.zeros(0)),
}


@pytest.mark.parametrize("case", GIG_CASES)
def test_gig_rvs_above_the_split_matches_the_masked_path(case):
    chi, tilt = GIG_CASES[case]
    assert np.all(chi * tilt > _OMEGA_SPLIT)

    def run(sample):
        rng = make_rng(51)
        draws = [sample(chi, tilt, rng) for _ in range(5)]
        return draws, rng.bit_generator.state

    got, got_state = run(gig_rvs)
    want, want_state = run(masked_gig_rvs)
    assert all(type(a) is type(b) and a.shape == b.shape and np.array_equal(a, b)
               for a, b in zip(got, want))
    assert got_state == want_state


def _zero_at(index):
    def edit(u):
        u.flat[index] = 0.0
    return edit


# (mean, variance, lower, edit of the first uniforms): mild cutoffs as in
# the alpha kernel, tail only, mixed cutoffs, an exact 0.0 uniform, which
# draws the cutoff itself to rounding, and no entries
TN_CASES = {
    "inverse-cdf": (np.zeros((6, 8)), np.full((6, 8), 0.04),
                    np.linspace(-1.0, 0.7, 48).reshape(6, 8), None),
    "tail-only": (np.zeros((2, 3)), np.full((2, 3), 0.25),
                  np.array([[2.5, 3.0, 6.0], [2.01, 4.0, 2.2]]), None),
    "mixed": (np.array([[0.5], [-1.0]]), np.full((2, 3), 2.0),
              np.array([[0.0, 9.0, 1.5], [6.0, -2.0, 8.0]]), None),
    "zero-uniform": (np.zeros((3, 4)), np.ones((3, 4)), np.full((3, 4), 0.5),
                     _zero_at(5)),
    "empty": (np.zeros(0), np.ones(0), np.zeros(0), None),
}


@pytest.mark.parametrize("case", TN_CASES)
def test_truncated_normal_matches_the_reference(case):
    mean, variance, lower, edit = TN_CASES[case]

    def run(sample):
        rng = Tampered(31, edit)
        draws = [sample(mean, variance, lower, rng) for _ in range(5)]
        return np.array(draws), rng.bit_generator.state

    got, got_state = run(truncated_normal_sample)
    want, want_state = run(reference_truncated_normal)
    assert np.allclose(got, want, rtol=1e-11, atol=0.0) and got_state == want_state
    assert np.all(got >= lower)
    if edit is not None:  # the 0.0 is used, not drawn again
        assert got[0].flat[5] == pytest.approx(lower.flat[5], rel=1e-12)


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf, 0.0, -1.0))
def test_truncated_normal_refuses_bad_variances(bad):
    variance = np.array([[1.0, bad], [2.0, 3.0]])
    rng = make_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="^variance must be finite and > 0$"):
        truncated_normal_sample(np.zeros(2), variance, np.zeros((2, 2)), rng)
    assert rng.bit_generator.state == state


def _reject_first_pass(u):
    u[...] = 1.0  # above every acceptance probability f / hat <= 1: none accepted


# (power, a, b, edit): per category and shared alpha on the snapshot
# (normal hat), a wide spread of modes (both hats), and a pass that accepts
# nothing (the kernel's first draw, its acceptance uniforms), so a second runs
ALPHA_CASES = {
    "per-category": (6, np.array([14.1, 13.2, 12.9, 15.3, 13.8, 17.0]),
                     np.array([9.8, 9.9, 10.1, 9.5, 9.7, 7.2]), None),
    "shared": (36, np.array([80.0]), np.array([52.0]), None),
    "spread": (3, np.array([0.05, 2.0, 400.0]), np.array([-3.0, 0.5, 900.0]), None),
    "second-pass": (6, np.array([14.1, 3.0]), np.array([9.8, -1.0]),
                    _reject_first_pass),
}


@pytest.mark.parametrize("case", ALPHA_CASES)
def test_alpha_kernel_matches_the_reference(case, monkeypatch):
    power, a, b, edit = ALPHA_CASES[case]

    def run():
        rng = Tampered(41, edit)
        draws = [dirichlet.modified_half_normal_sample(power, a, b, rng)
                 for _ in range(20)]
        return np.array(draws), rng.bit_generator.state

    got, got_state = run()
    monkeypatch.setattr(dirichlet, "truncated_normal_sample",
                        reference_truncated_normal)
    want, want_state = run()
    assert np.allclose(got, want, rtol=1e-11, atol=0.0) and got_state == want_state
