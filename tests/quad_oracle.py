"""Adaptive-quadrature posterior mean: the reference for the grid oracles.

Not part of the package. `scipy.integrate.quad` integrates the unnormalized
density on the grid's bracket, split at the grid's mode, independently of
the trapezoid rule the package's oracles use.
"""

import numpy as np
from scipy.integrate import quad


def quad_mean(log_post, grid):
    """Posterior mean of exp(log_post) over [grid[0], grid[-1]] by `quad`."""
    log_f = log_post(grid)
    mode, peak = grid[np.argmax(log_f)], log_f.max()

    def moment(j):
        return quad(lambda x: x**j * np.exp(log_post(np.array([x]))[0] - peak),
                    grid[0], grid[-1], points=[mode], epsabs=0.0, epsrel=1e-12,
                    limit=200)[0]

    return moment(1) / moment(0)
