"""Deterministic special-function kernels shared by samplers and oracles.

Thin validating wrappers over scipy.special: the samplers treat these as
black boxes, but every caller relies on the positive-axis domain checks.
"""

import numpy as np
from scipy import special as _sp

# Euler-Mascheroni constant; equals -digamma(1).
EULER_GAMMA = 0.5772156649015329


def _validate_positive(x, name):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError(f"{name} requires finite, strictly positive input")
    return arr


def _as_input_kind(out, x):
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def log_gamma(x):
    """ln Gamma(x) for x > 0. Scalar in, scalar out; arrays pass through."""
    arr = _validate_positive(x, "log_gamma")
    return _as_input_kind(_sp.gammaln(arr), x)


def digamma(x):
    """psi(x) = d/dx ln Gamma(x) for x > 0."""
    arr = _validate_positive(x, "digamma")
    return _as_input_kind(_sp.psi(arr), x)
