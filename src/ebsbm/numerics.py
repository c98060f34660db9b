"""Contract-checked special functions.

Thin wrappers around SciPy's gammaln/betaln/psi that reject arguments
outside their domain, for callers outside the fitting loop. The
Beta-Binomial marginal, its gradient and its trigamma Hessian, and the
Newton hyperparameter fit, live in ``estimator`` and call
``scipy.special`` directly, because their inputs are checked once at the
API boundary rather than on every Newton step. Every routine here is
pure and re-entrant.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp


def _check_positive(x, name):
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise ValueError(f"{name} requires strictly positive finite arguments")
    return arr


def log_gamma(x):
    """Natural log of the Gamma function for x > 0 (scalar or array)."""
    arr = _check_positive(x, "log_gamma")
    out = _sp.gammaln(arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def log_beta(a, b):
    """log Beta(a, b) = log_gamma(a) + log_gamma(b) - log_gamma(a + b)."""
    aa = _check_positive(a, "log_beta")
    bb = _check_positive(b, "log_beta")
    out = _sp.betaln(aa, bb)
    if (np.isscalar(a) or aa.ndim == 0) and (np.isscalar(b) or bb.ndim == 0):
        return float(out)
    return out


def digamma(x):
    """Digamma function psi(x) for x > 0 (scalar or array)."""
    arr = _check_positive(x, "digamma")
    out = _sp.psi(arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out
