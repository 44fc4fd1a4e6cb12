"""Log-domain modified Bessel K: the oracle for the GIG(-3/2) mean checks.

Not part of the package. The samplers use the closed mean chi^2/(1 + omega);
the tests check that closed form against the Bessel-ratio mean built on this
function, and `tests/test_special.py::TestLogBesselK` checks the function itself.
"""

import numpy as np
from scipy.special import kve


def log_bessel_k(order, x):
    """ln K_order(x) for x > 0, evaluated in log scale.

    Uses the exponentially scaled Bessel function so that large x does not
    underflow. Symmetric in the sign of the order (K_{-v} = K_v).
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError("log_bessel_k requires finite, strictly positive input")
    out = np.log(kve(order, arr)) - arr
    return float(out) if np.ndim(x) == 0 else out
