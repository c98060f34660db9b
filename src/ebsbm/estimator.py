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

The fit maximizes over (log alpha, log beta) in the fixed box
[log HYPER_BOX_LOWER, log HYPER_BOX_UPPER]^2, one 2-D fit per block
family: in closed form at the complete-pooling limit (s = alpha + beta
-> inf) when that is the maximum, else by Newton ascent with a trigamma
Hessian (:func:`_fit_pair`, :func:`maximize_box`). The marginal and its
gradient are written once, in ``_marginal_and_grad``, which the fit,
:func:`marginal_loglik` and :func:`loglik_gradient` all call. Inputs are
checked at the API boundary (``BlockStats`` and the public functions'
hyperparameters and ``which``); the kernels call SciPy unchecked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import betaln, psi, xlogy, zeta

from .graph import BlockStats, check_connectivity

# Hyperparameter search box; spans essentially-no-shrinkage (1e-4) through
# full-pooling (1e6) regimes. The fit runs on log(alpha), log(beta).
HYPER_BOX_LOWER = 1e-4
HYPER_BOX_UPPER = 1e6
_LOG_LO = np.log(HYPER_BOX_LOWER)
_LOG_HI = np.log(HYPER_BOX_UPPER)
# within 1e-9 of a bound, maximize_box may hold a coordinate
_LO_EDGE = float(_LOG_LO + 1e-9)
_HI_EDGE = float(_LOG_HI - 1e-9)

_WHICH = ("diagonal", "offdiagonal")


@dataclass(frozen=True)
class HyperParams:
    """The four Beta hyperparameters: (alpha0, beta0) for diagonal blocks,
    (alpha1, beta1) for off-diagonal blocks; ``*_pooled`` marks a family
    fitted at the complete-pooling limit (see ``_fit_pair``)."""

    alpha0: float
    beta0: float
    alpha1: float
    beta1: float
    offdiag_fitted: bool = True
    diag_converged: bool = True
    offdiag_converged: bool = True
    diag_pooled: bool = False
    offdiag_pooled: bool = False

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
    f = betaln(a + x, b + m - x).sum() - count * betaln(a, b)
    da = (psi(a + x) - psi_sum).sum() - count * (psi(a) - psi(a + b))
    db = (psi(b + m - x) - psi_sum).sum() - count * (psi(b) - psi(a + b))
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


class BoxFit(NamedTuple):
    argmax: np.ndarray
    converged: bool
    iterations: int


def maximize_box(objective, init) -> BoxFit:
    """Maximize a smooth objective over the log-space box by projected,
    modified Newton ascent.

    `objective` maps u = (log alpha, log beta) to (value, gradient,
    Hessian) and must be finite at `init`, a point of the box. A step is
    Newton's on the coordinates not held at a bound (within 1e-9) by a
    gradient pointing out, with the eigenvalues of -H flipped and floored
    positive so that it ascends, shortened to stay in the box and halved
    (at most 60 times) until the value rises, or falls only by rounding,
    1e-10 (1 + |f|), at a point that passes the test: projected-gradient
    max-norm below 1e-6 and predicted gain g.step / 2 below 1e-11. At
    most 100 steps. The objective is called at `init` and at each trial
    only; the result is the last point taken, or `init` if higher.

    The floats of a step come from ``np.linalg.eigh(-H)``, the two
    matmuls, the shortening divide and ``g @ step``; the rest is
    bookkeeping. Off both bounds no coordinate can be held, and the step
    is eigh and the matmuls on the whole (H, g), shortened only when it
    leaves the box; near a bound the held coordinates are masked out.
    """
    def newton(u, g, H):
        (u0, u1), (g0, g1) = u.tolist(), g.tolist()
        if _LO_EDGE < u0 < _HI_EDGE and _LO_EDGE < u1 < _HI_EDGE:
            # nothing held: the step on the whole (H, g)
            lam, vec = np.linalg.eigh(-H)
            step = vec @ (vec.T @ g / np.maximum(np.abs(lam), 1e-12))
            done = abs(g0) < 1e-6 and abs(g1) < 1e-6
            s0, s1 = step.tolist()
            if _LOG_LO <= u0 + s0 <= _LOG_HI and _LOG_LO <= u1 + s1 <= _LOG_HI:
                return step, done and g @ step < 2e-11
        else:
            lo, hi = u <= _LO_EDGE, u >= _HI_EDGE
            free = ~((lo & (g < 0)) | (hi & (g > 0)))
            lam, vec = np.linalg.eigh(-H[np.ix_(free, free)])
            step = np.zeros(2)
            step[free] = vec @ (vec.T @ g[free] / np.maximum(np.abs(lam), 1e-12))
            step[(lo & (step < 0)) | (hi & (step > 0))] = 0
            done = np.max(np.abs(g[free]), initial=0.0) < 1e-6
        # shortened, not clipped, to the box: it keeps its direction
        over = (u + step > _LOG_HI) | (u + step < _LOG_LO)
        step *= np.divide(np.where(step > 0, _LOG_HI, _LOG_LO) - u, step,
                          out=np.ones(2), where=over).min()
        return step, done and g @ step < 2e-11

    u0 = u = np.asarray(init, dtype=np.float64)
    f, g, H = objective(u)
    if not (np.isfinite(f) and np.isfinite(g).all() and np.isfinite(H).all()):
        raise ValueError("objective is not finite at init")
    f0, (step, done), it = f, newton(u, g, H), 0
    while not done and it < 100:
        for _ in range(60):
            trial = np.clip(u + step, _LOG_LO, _LOG_HI)
            ft, gt, Ht = objective(trial)
            step_t, done = newton(trial, gt, Ht)
            if ft > f or (done and ft >= f - 1e-10 * (1 + abs(f))):
                break
            step /= 2
        else:
            done = False
            break
        u, f, step, it = trial, ft, step_t, it + 1
    if f < f0:
        return BoxFit(argmax=u0, converged=False, iterations=it)
    return BoxFit(argmax=u, converged=bool(done), iterations=it)


# Prior sizes s = alpha + beta at which _fit_pair evaluates the marginal
# at the pooled mean, for the pooling check and the Newton start.
_START_S = np.logspace(-2, 4, 13)[:, None]


def _fit_pair(x, m):
    """Maximize the blockwise marginal over (alpha, beta); returns (alpha,
    beta, converged, pooled).

    As s = alpha + beta -> inf at the pooled mean mu = sum(x) / sum(m),
    the marginal tends to the Binomial log-likelihood at mu plus C / s,
    C = sum[x(x-1) / (2 mu) + y(y-1) / (2 (1 - mu)) - m(m-1) / 2] with
    y = m - x (Tarone's score; its sign is taken from the integer
    2 mu (1 - mu) sum(m)^2 C). C <= 0 makes that limit a local maximum,
    and the fit unless the marginal at mu and some s in ``_START_S`` beats
    it beyond rounding: then the fit is the box point at mean mu with its
    larger coordinate HYPER_BOX_UPPER, flagged pooled ((LOWER, UPPER) or
    its mirror when mu is 0 or 1). Otherwise it is :func:`maximize_box`
    from the best of those points.
    """
    sx, sm = int(x.sum()), int(m.sum())
    sy, y = sm - sx, m - x
    score = (sm * (sy * int((x * (x - 1)).sum()) + sx * int((y * (y - 1)).sum()))
             - sx * sy * int((m * (m - 1)).sum()))
    mu = sx / sm
    a = np.maximum(mu * _START_S, HYPER_BOX_LOWER)
    b = np.maximum((1 - mu) * _START_S, HYPER_BOX_LOWER)
    near = betaln(a + x, b + y).sum(axis=1) - x.size * betaln(a, b)[:, 0]
    k = int(np.argmax(near))
    limit = float((xlogy(x, mu) + xlogy(y, 1 - mu)).sum())
    if score <= 0 and near[k] <= limit + 1e-10 * (1 + abs(limit)):
        top = max(sx, sy)
        return (max(HYPER_BOX_UPPER * sx / top, HYPER_BOX_LOWER),
                max(HYPER_BOX_UPPER * sy / top, HYPER_BOX_LOWER), True, True)

    def objective(u):
        a, b = np.exp(u)
        f, da, db = _marginal_and_grad(a, b, x, m)
        # second derivatives in (a, b), via trigamma
        dab = x.size * zeta(2, a + b) - zeta(2, a + b + m).sum()
        daa = zeta(2, a + x).sum() - x.size * zeta(2, a) + dab
        dbb = zeta(2, b + y).sum() - x.size * zeta(2, b) + dab
        g = np.array([da * a, db * b])
        return f, g, np.array([[daa * a * a + g[0], dab * a * b],
                               [dab * a * b, dbb * b * b + g[1]]])

    fit = maximize_box(objective, np.log([a[k, 0], b[k, 0]]))
    a, b = np.exp(fit.argmax)
    return float(a), float(b), fit.converged, False


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
    a0, b0, conv0, pool0 = _fit_pair(xd, md)

    xo, mo = _family_blocks(stats, "offdiagonal")
    if xo.size:
        a1, b1, conv1, pool1 = _fit_pair(xo, mo)
        fitted = True
    else:
        a1, b1, conv1, pool1, fitted = 1.0, 1.0, True, False, False
    return HyperParams(alpha0=a0, beta0=b0, alpha1=a1, beta1=b1,
                       offdiag_fitted=fitted, diag_converged=conv0,
                       offdiag_converged=conv1, diag_pooled=pool0,
                       offdiag_pooled=pool1)


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
