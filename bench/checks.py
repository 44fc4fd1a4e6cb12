"""Output checks for the benchmark: draws, predictive rows, split-R-hat and
the quadrature-oracle comparison.

The checks read the files a command wrote with numpy and the standard
library, not with the program's own readers, so a defect in `polyaig.io`
cannot hide a defect in its output.
"""

from __future__ import annotations

import csv
import json

import numpy as np
from scipy.special import ndtri

# A fit matches its oracle when |chain mean - oracle mean| is at most
# ORACLE_Z Monte Carlo standard errors, the error being oracle_sd/sqrt(ess).
ORACLE_Z = 6.0
# Chains agree when the rank-normalized split-R-hat of every parameter is
# at most this (Vehtari et al. 2021 advise 1.01 for long final runs; the
# benchmark's chains are short, so the limit is looser).
RHAT_LIMIT = 1.05
SIMPLEX_TOL = 1e-9


class CheckError(Exception):
    """An output is malformed: missing, unreadable, non-finite or off its
    support. The program produced output that no correct run produces."""


def read_samples(path):
    """(names, draws) from a samples CSV with header `iter,<name>,...`."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        names = rows[0][1:]
        draws = np.array([[float(c) for c in r[1:]] for r in rows[1:] if r],
                         dtype=float)
    except (OSError, IndexError, ValueError) as exc:
        raise CheckError(f"{path}: unreadable samples ({exc})") from None
    if draws.ndim != 2 or draws.shape[0] == 0 or draws.shape[1] != len(names):
        raise CheckError(f"{path}: samples have shape {draws.shape}")
    if not np.all(np.isfinite(draws)) or np.any(draws <= 0):
        raise CheckError(f"{path}: a draw is non-finite or not > 0")
    return names, draws


def read_summary(path):
    try:
        with open(path, encoding="utf-8") as fh:
            summary = json.load(fh)
        ess = [p["ess"] for p in summary["parameters"]]
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise CheckError(f"{path}: unreadable summary ({exc})") from None
    if not all(isinstance(e, (int, float)) and e > 0 for e in ess):
        raise CheckError(f"{path}: ess missing or not > 0")
    return summary


def min_ess(summary):
    return min(float(p["ess"]) for p in summary["parameters"])


def check_predictive(path, k):
    """Every block of k consecutive values is one simplex draw."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        values = np.array([float(r[1]) for r in rows if r], dtype=float)
    except (OSError, IndexError, ValueError) as exc:
        raise CheckError(f"{path}: unreadable predictive draws ({exc})") from None
    if values.size == 0 or values.size % k:
        raise CheckError(f"{path}: {values.size} values, not a multiple of {k}")
    p = values.reshape(-1, k)
    if not np.all(np.isfinite(p)) or np.any(p < 0):
        raise CheckError(f"{path}: a predictive value is non-finite or < 0")
    worst = float(np.max(np.abs(p.sum(axis=1) - 1.0)))
    if worst > SIMPLEX_TOL:
        raise CheckError(f"{path}: a predictive row sums to 1 {worst:+.3g}")


def _rhat(z):
    n = z.shape[1]
    w = z.var(axis=1, ddof=1).mean()
    b = n * z.mean(axis=1).var(ddof=1)
    return float(np.sqrt(((n - 1) / n * w + b / n) / w))


def _rank_normalize(z):
    flat = z.ravel()
    ranks = np.empty(flat.size)
    ranks[np.argsort(flat, kind="stable")] = np.arange(1, flat.size + 1)
    return ndtri((ranks - 0.375) / (flat.size + 0.25)).reshape(z.shape)


def split_rhat(chains):
    """Rank-normalized split-R-hat of one parameter over several chains.

    Vehtari, Gelman, Simpson, Carpenter and Buerkner (2021): each chain is
    split in half, the pooled draws are rank-normalized, and the result is
    the larger of the bulk R-hat and the R-hat of the folded draws.
    """
    half = min(len(c) for c in chains) // 2
    z = np.array([part for c in chains for part in (c[:half], c[half:2 * half])])
    bulk = _rhat(_rank_normalize(z))
    folded = _rhat(_rank_normalize(np.abs(z - np.median(z))))
    return max(bulk, folded)


def oracle_z(mean, ess, oracle_mean, oracle_sd):
    """Chain-mean error in Monte Carlo standard errors of a correct chain."""
    return abs(mean - oracle_mean) / (oracle_sd / np.sqrt(ess))
