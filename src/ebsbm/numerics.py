"""Special functions and a box-constrained smooth maximizer.

Thin, contract-checked wrappers around SciPy: gammaln/betaln/psi for
callers outside the fitting loop, and L-BFGS-B for hyperparameter fitting.
The Beta-Binomial marginal kernel lives in ``estimator`` and calls SciPy
directly, because its inputs are checked once at the API boundary rather
than on every optimizer step. Every routine here is pure and re-entrant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize as _opt
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


@dataclass(frozen=True)
class Bounds:
    """Per-coordinate finite box lower < upper."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=np.float64)).copy()
        hi = np.atleast_1d(np.asarray(self.upper, dtype=np.float64)).copy()
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lower and upper must be 1-d vectors of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("bounds must be finite")
        if np.any(lo >= hi):
            raise ValueError("need lower < upper in every coordinate")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, x, strict=False) -> bool:
        x = np.asarray(x, dtype=np.float64)
        if strict:
            return bool(np.all(x > self.lower) and np.all(x < self.upper))
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))

    def clip(self, x) -> np.ndarray:
        return np.clip(np.asarray(x, dtype=np.float64), self.lower, self.upper)


@dataclass(frozen=True)
class MaximizeResult:
    argmax: np.ndarray
    value: float
    converged: bool
    iterations: int


def maximize_box(objective, bounds: Bounds, init, max_iter: int = 500,
                 grad_tol: float = 1e-6) -> MaximizeResult:
    """Maximize a smooth objective over a box.

    Parameters
    ----------
    objective : callable
        Maps a point x to (value, gradient). Must be finite on the box
        interior.
    bounds : Bounds
        The feasible box; `init` must lie strictly inside it.
    init : array_like
        Starting point.

    Returns the maximizer found by projected quasi-Newton iterations
    (L-BFGS-B), stopping once the projected gradient max-norm drops below
    `grad_tol` or after `max_iter` iterations; in the latter case
    ``converged`` is False and the best iterate is still returned. The
    result never leaves the box and its value is never below the value at
    `init`. Deterministic given `init`.
    """
    x0 = np.atleast_1d(np.asarray(init, dtype=np.float64))
    if x0.shape != bounds.lower.shape:
        raise ValueError("init has wrong dimension for bounds")
    if not bounds.contains(x0, strict=True):
        raise ValueError("init must lie strictly inside the bounds")
    f0, g0 = objective(x0)
    if not np.isfinite(f0) or not np.all(np.isfinite(g0)):
        raise ValueError("objective is not finite at init")
    # the last evaluated point and (f, g) there: serves L-BFGS-B's first
    # call at x0 and the value at the returned point, evaluated last
    last_x, last_fg = x0, (f0, g0)

    def evaluate(x):
        nonlocal last_x, last_fg
        if not np.array_equal(x, last_x):
            last_x, last_fg = np.array(x, dtype=np.float64), objective(x)
        return last_fg

    def negated(x):
        f, g = evaluate(x)
        return -float(f), -np.asarray(g, dtype=np.float64)

    res = _opt.minimize(
        negated,
        x0=x0,
        jac=True,
        method="L-BFGS-B",
        bounds=list(zip(bounds.lower, bounds.upper)),
        options={"maxiter": max_iter, "gtol": grad_tol, "ftol": 1e-15},
    )
    x = bounds.clip(res.x)
    value = float(evaluate(x)[0])
    converged = bool(res.success) or "CONVER" in str(res.message).upper()
    if value < float(f0):
        # line-search pathologies only; fall back to the starting point
        return MaximizeResult(argmax=x0, value=float(f0), converged=False,
                              iterations=int(res.nit))
    return MaximizeResult(argmax=x, value=value, converged=converged,
                          iterations=int(res.nit))
