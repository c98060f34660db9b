"""Connectivity estimation under a hierarchical Beta-Binomial block model.

Each block's edge count is Binomial(n_ab, theta_ab) with theta_ab drawn
from one of two Beta priors: (alpha0, beta0) for diagonal blocks and
(alpha1, beta1) for off-diagonal ones. The marginal likelihood of the
adjacency data integrates theta out blockwise:

    sum_blocks log Beta(alpha + X, beta + n - X) - (#blocks) log Beta(alpha, beta)

Maximizing it over the hyperparameters and plugging the maximizer into
the conditional posterior mean

    (alpha + X) / (alpha + beta + n)

gives the empirical Bayes estimate. The same posterior-mean formula with
user-pinned hyperparameters is the fixed-prior baseline, and the raw block
frequency X / n is the MLE baseline.

The fit runs L-BFGS-B in (log alpha, log beta) over the fixed box
[log HYPER_BOX_LOWER, log HYPER_BOX_UPPER]^2 (:func:`maximize_box`), one
2-D fit per block family. The marginal and its gradient are written once,
in ``_marginal_and_grad``, which the fit's objective,
:func:`marginal_loglik` and :func:`loglik_gradient` all call. Inputs are
checked at the API boundary (``BlockStats`` and the public functions'
hyperparameters and ``which``); the kernel itself calls SciPy unchecked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import minimize
from scipy.special import betaln, psi

from .graph import BlockStats, check_connectivity

# Hyperparameter search box; spans essentially-no-shrinkage (1e-4) through
# full-pooling (1e6) regimes. Optimization runs on log(alpha), log(beta).
HYPER_BOX_LOWER = 1e-4
HYPER_BOX_UPPER = 1e6
_LOG_LO = np.log(HYPER_BOX_LOWER)
_LOG_HI = np.log(HYPER_BOX_UPPER)

_WHICH = ("diagonal", "offdiagonal")


@dataclass(frozen=True)
class HyperParams:
    """The four Beta hyperparameters: (alpha0, beta0) for diagonal blocks,
    (alpha1, beta1) for off-diagonal blocks."""

    alpha0: float
    beta0: float
    alpha1: float
    beta1: float
    offdiag_fitted: bool = True
    diag_converged: bool = True
    offdiag_converged: bool = True

    def __post_init__(self):
        for name in ("alpha0", "beta0", "alpha1", "beta1"):
            v = float(getattr(self, name))
            if not np.isfinite(v) or v <= 0:
                raise ValueError(f"{name} must be a positive finite real")
            object.__setattr__(self, name, v)

    def to_json_dict(self):
        return dict(vars(self))


@dataclass(frozen=True, eq=False)
class ConnectivityEstimate:
    """A K x K symmetric connectivity matrix plus provenance.

    method is one of "MLE", "EB", "VBEM-baseline", "fixed-prior".
    shrinkage, when present, holds the weight each block placed on the
    prior mean rather than its own empirical frequency.
    """

    theta: np.ndarray
    method: str
    hyper: HyperParams | None = None
    shrinkage: np.ndarray | None = None
    flags: tuple = ()

    def __post_init__(self):
        theta = check_connectivity(self.theta)
        theta.flags.writeable = False
        object.__setattr__(self, "theta", theta)
        if self.shrinkage is not None:
            sh = np.asarray(self.shrinkage, dtype=np.float64).copy()
            if sh.shape != theta.shape or sh.min() < -1e-12 or sh.max() > 1 + 1e-12:
                raise ValueError("shrinkage must be K x K with entries in [0, 1]")
            sh.flags.writeable = False
            object.__setattr__(self, "shrinkage", sh)
        object.__setattr__(self, "flags", tuple(self.flags))

    @property
    def K(self) -> int:
        return self.theta.shape[0]

    def to_json_dict(self):
        return {
            "K": self.K,
            "method": self.method,
            "theta": [float(v) for v in self.theta.ravel()],
            "hyper": self.hyper.to_json_dict() if self.hyper is not None else None,
            "shrinkage": ([float(v) for v in self.shrinkage.ravel()]
                          if self.shrinkage is not None else None),
            "flags": list(self.flags),
        }


def _family_blocks(stats: BlockStats, which: str):
    """(x, m) as float64 over the family's blocks with at least one pair."""
    if which == "diagonal":
        x, m = stats.diagonal_counts()
    elif which == "offdiagonal":
        x, m = stats.offdiagonal_counts()
    else:
        raise ValueError(f"which must be one of {_WHICH}, got {which!r}")
    keep = m > 0
    return x[keep].astype(np.float64), m[keep].astype(np.float64)


def _check_pair(alpha, beta):
    if not (np.isfinite(alpha) and alpha > 0 and np.isfinite(beta) and beta > 0):
        raise ValueError("hyperparameters must be positive finite reals")


def _marginal_and_grad(a, b, x, m):
    """The blockwise marginal and its (d/da, d/db) over blocks (x, m).

    The single kernel behind fitting and scoring. Unchecked: callers
    guarantee a, b > 0 and 0 <= x <= m with m > 0.
    """
    count = x.size
    psi_sum = psi(a + b + m)
    f = np.sum(betaln(a + x, b + m - x)) - count * betaln(a, b)
    da = np.sum(psi(a + x) - psi_sum) - count * (psi(a) - psi(a + b))
    db = np.sum(psi(b + m - x) - psi_sum) - count * (psi(b) - psi(a + b))
    return float(f), float(da), float(db)


def marginal_loglik(stats: BlockStats, alpha: float, beta: float, which: str) -> float:
    """Blockwise-integrated log-likelihood over the selected blocks.

    Blocks with zero pairs contribute exactly 0 (an empty product), so
    singleton clusters degrade gracefully rather than erroring.
    """
    _check_pair(alpha, beta)
    x, m = _family_blocks(stats, which)
    if x.size == 0:
        return 0.0
    return _marginal_and_grad(float(alpha), float(beta), x, m)[0]


def loglik_gradient(stats: BlockStats, alpha: float, beta: float, which: str):
    """(d/dalpha, d/dbeta) of :func:`marginal_loglik`, via digamma."""
    _check_pair(alpha, beta)
    x, m = _family_blocks(stats, which)
    if x.size == 0:
        return (0.0, 0.0)
    return _marginal_and_grad(float(alpha), float(beta), x, m)[1:]


def mle_estimate(stats: BlockStats) -> ConnectivityEstimate:
    """Per-block empirical edge frequency X / n.

    Blocks without any node pair get the global edge density and a flag,
    so downstream squared-error comparisons always have a defined value.
    """
    m = stats.pair_counts
    x = stats.edge_counts
    fill = stats.total_edges / stats.total_pairs if stats.total_pairs > 0 else 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        theta = np.where(m > 0, x / np.maximum(m, 1), fill)
    flags = tuple(
        f"block({a + 1},{b + 1}):global-density-fill"
        for a in range(stats.K) for b in range(a, stats.K) if m[a, b] == 0
    )
    return ConnectivityEstimate(theta=theta, method="MLE", flags=flags)


def _moment_init(x, m):
    """Beta moment-matching start for the optimizer, clamped into the box."""
    freqs = x / m
    mu = float(np.clip(freqs.mean(), 1e-6, 1 - 1e-6))
    var = float(freqs.var())
    if freqs.size < 2 or var <= 1e-12:
        return np.array([1.0, 1.0])
    s = mu * (1 - mu) / var - 1.0
    if s <= 0:
        return np.array([1.0, 1.0])
    lo = HYPER_BOX_LOWER * (1 + 1e-6)
    hi = HYPER_BOX_UPPER * (1 - 1e-6)
    return np.clip(np.array([mu * s, (1 - mu) * s]), lo, hi)


class BoxFit(NamedTuple):
    argmax: np.ndarray
    converged: bool
    iterations: int


def maximize_box(objective, init) -> BoxFit:
    """Maximize a smooth objective over the log-space box by L-BFGS-B.

    `objective` maps u = (log alpha, log beta) to (value, gradient) and
    must be finite at `init`, a point of the box. Iterations stop once the
    projected gradient max-norm drops below 1e-6 or after 500; in the
    latter case ``converged`` is False and the best iterate is still
    returned. The result never leaves the box, and if its value is below
    the value at `init` (a line-search pathology) `init` is returned,
    unconverged. Deterministic given `init`.
    """
    x0 = np.asarray(init, dtype=np.float64)
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

    res = minimize(negated, x0=x0, jac=True, method="L-BFGS-B",
                   bounds=[(_LOG_LO, _LOG_HI)] * 2,
                   options={"maxiter": 500, "gtol": 1e-6, "ftol": 1e-15})
    x = np.clip(res.x, _LOG_LO, _LOG_HI)
    if float(evaluate(x)[0]) < float(f0):
        return BoxFit(argmax=x0, converged=False, iterations=int(res.nit))
    converged = bool(res.success) or "CONVER" in str(res.message).upper()
    return BoxFit(argmax=x, converged=converged, iterations=int(res.nit))


def _fit_pair(x, m):
    """Maximize the blockwise marginal over (alpha, beta) in log space."""

    def objective(u):
        a, b = np.exp(u)
        f, da, db = _marginal_and_grad(a, b, x, m)
        return f, np.array([da * a, db * b])

    fit = maximize_box(objective, np.log(_moment_init(x, m)))
    a, b = np.exp(fit.argmax)
    return float(a), float(b), fit.converged


def fit_hyperparams(stats: BlockStats) -> HyperParams:
    """Maximum-likelihood Beta hyperparameters for each block family.

    The diagonal pair requires at least one diagonal block with pairs.
    The off-diagonal pair is fitted whenever such blocks exist (always the
    case for K >= 2 without empty clusters) and defaults to (1, 1),
    flagged unfitted, otherwise.
    """
    xd, md = _family_blocks(stats, "diagonal")
    if xd.size == 0:
        raise ValueError("no diagonal block has any node pair; cannot fit hyperparameters")
    a0, b0, conv0 = _fit_pair(xd, md)

    xo, mo = _family_blocks(stats, "offdiagonal")
    if xo.size:
        a1, b1, conv1 = _fit_pair(xo, mo)
        fitted = True
    else:
        a1, b1, conv1, fitted = 1.0, 1.0, True, False
    return HyperParams(alpha0=a0, beta0=b0, alpha1=a1, beta1=b1,
                       offdiag_fitted=fitted, diag_converged=conv0,
                       offdiag_converged=conv1)


def _posterior_mean(stats: BlockStats, a0, b0, a1, b1):
    diag = np.eye(stats.K, dtype=bool)
    alpha = np.where(diag, a0, a1)
    beta = np.where(diag, b0, b1)
    m = stats.pair_counts
    x = stats.edge_counts
    theta = (alpha + x) / (alpha + beta + m)
    shrink = (alpha + beta) / (alpha + beta + m)
    return theta, shrink


def eb_estimate(stats: BlockStats, hyper: HyperParams) -> ConnectivityEstimate:
    """Posterior-mean connectivity under the fitted hyperparameters.

    Satisfies theta = eta * prior_mean + (1 - eta) * MLE exactly on every
    block with at least one pair, where eta is the returned shrinkage.
    """
    theta, shrink = _posterior_mean(stats, hyper.alpha0, hyper.beta0,
                                    hyper.alpha1, hyper.beta1)
    return ConnectivityEstimate(theta=theta, method="EB", hyper=hyper, shrinkage=shrink)


def fixed_prior_estimate(stats: BlockStats, a0: float = 0.5, b0: float = 0.5) -> ConnectivityEstimate:
    """Posterior mean under one fixed Beta(a0, b0) prior on every block."""
    if not (a0 > 0 and b0 > 0):
        raise ValueError("prior parameters must be positive")
    theta, shrink = _posterior_mean(stats, a0, b0, a0, b0)
    return ConnectivityEstimate(theta=theta, method="fixed-prior", shrinkage=shrink)
