"""Piecewise-constant graphon estimates on [0, 1)^2.

A fitted block model becomes a step function: the unit interval is cut at
the cumulative cluster proportions and each cell carries its block's
connectivity. Cluster order is pinned down by requiring the degree
function g(l) = sum_k pi_k theta_lk to be nondecreasing, which makes
estimates comparable across runs and against the power-law truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimator import ConnectivityEstimate
from .graph import Partition, check_connectivity
from .samplers import GraphonSpec


@dataclass(frozen=True, eq=False)
class StepGraphon:
    """Boundaries 0 = c_0 < c_1 < ... < c_K = 1 plus a K x K symmetric
    value matrix; cell (a, b) is [c_{a-1}, c_a) x [c_{b-1}, c_b)."""

    boundaries: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.boundaries, dtype=np.float64).copy()
        if b.ndim != 1 or b.size < 2:
            raise ValueError("boundaries must hold at least [0, 1]")
        if abs(b[0]) > 1e-12 or abs(b[-1] - 1.0) > 1e-12:
            raise ValueError("boundaries must start at 0 and end at 1")
        if np.any(np.diff(b) <= 0):
            raise ValueError("boundaries must be strictly increasing")
        t = check_connectivity(self.theta, b.size - 1)
        b[0], b[-1] = 0.0, 1.0
        b.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "boundaries", b)
        object.__setattr__(self, "theta", t)

    @property
    def K(self) -> int:
        return self.theta.shape[0]

    @property
    def gaps(self) -> np.ndarray:
        """Cell widths, i.e. the cluster proportions."""
        return np.diff(self.boundaries)

    def to_json_dict(self):
        return {"boundaries": [float(v) for v in self.boundaries],
                "theta": [float(v) for v in self.theta.ravel()]}


def build_step_graphon(partition: Partition, estimate: ConnectivityEstimate) -> StepGraphon:
    """Step function with cell widths n_k / n and the estimate's values.

    Cumulative proportions are renormalized so the last boundary is
    exactly 1. Cluster order is kept as-is; apply
    :func:`reorder_identifiable` separately when alignment matters.
    """
    if estimate.K != partition.K:
        raise ValueError(f"estimate has K={estimate.K}, partition has K={partition.K}")
    cum = np.cumsum(partition.sizes) / partition.n
    boundaries = np.concatenate([[0.0], cum])
    boundaries[-1] = 1.0
    return StepGraphon(boundaries=boundaries, theta=estimate.theta)


def bin_index(x, boundaries):
    """Cell index in 1..K of x in [0, 1): one plus the number of interior
    boundaries at or below x (cells are closed on the left)."""
    b = np.asarray(boundaries, dtype=np.float64)
    xs = np.asarray(x, dtype=np.float64)
    if np.any(xs < 0) or np.any(xs >= 1):
        raise ValueError("bin_index is defined on [0, 1)")
    idx = 1 + np.searchsorted(b[1:-1], xs, side="right")
    return int(idx) if np.isscalar(x) or xs.ndim == 0 else idx


def reorder_identifiable(g: StepGraphon):
    """Permute clusters so the degree function is nondecreasing.

    Returns (reordered graphon, permutation), where position l of the new
    ordering holds old cluster permutation[l]. Ties keep their original
    relative order.
    """
    degree = g.theta @ g.gaps
    perm = np.argsort(degree, kind="stable")
    theta = g.theta[np.ix_(perm, perm)]
    gaps = g.gaps[perm]
    boundaries = np.concatenate([[0.0], np.cumsum(gaps)])
    boundaries[-1] = 1.0
    return StepGraphon(boundaries=boundaries, theta=theta), perm


def mse_graphon(estimate: StepGraphon, truth: GraphonSpec) -> float:
    """Integrated squared error between the estimate and the truth, the
    power-law graphon rho lam^2 (x y)^(lam - 1) given by its two
    parameters, in closed form: on each cell every term of the squared
    difference has a monomial antiderivative."""
    rho, lam = truth.rho, truth.lam
    edges = estimate.boundaries
    p2 = 2 * lam - 1
    i1 = np.diff(edges**lam) / lam  # per-cell integrals of x^(lam - 1)
    i2 = np.diff(edges**p2) / p2    # and of x^(2 lam - 2)
    areas = np.outer(estimate.gaps, estimate.gaps)
    sq = rho**2 * lam**4 * np.outer(i2, i2)
    cross = rho * lam**2 * np.outer(i1, i1)
    t = estimate.theta
    return float(np.sum(sq - 2 * t * cross + t**2 * areas))
