"""Scoring and selection of candidate partitions.

The main criterion combines the blockwise-integrated likelihood at fitted
hyperparameters with the marginal of the label counts under a symmetric
Dirichlet(1/2) prior, minus a complexity penalty that charges the K - 1
membership proportions against log n and the K(K+1)/2 block probabilities
against the log pair count. A cross-validation risk baseline (CVRP) is
provided in two variants; see :func:`cvrp_score`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .estimator import HyperParams, fit_hyperparams, marginal_loglik
from .graph import Graph, Partition, block_stats
from .numerics import log_gamma


@dataclass(frozen=True)
class SelectionScore:
    """Score table row for one candidate partition."""

    K: int
    j_z: float
    penalty: float
    total: float
    cvrp: float
    hyper: HyperParams

    def to_json_dict(self):
        return {
            "K": self.K, "j_z": self.j_z, "penalty": self.penalty,
            "total": self.total, "cvrp": self.cvrp,
            "hyper": self.hyper.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, d):
        return cls(K=int(d["K"]), j_z=float(d["j_z"]), penalty=float(d["penalty"]),
                   total=float(d["total"]), cvrp=float(d["cvrp"]),
                   hyper=HyperParams.from_json_dict(d["hyper"]))


def log_dirichlet_marginal(sizes, tau: float = 0.5) -> float:
    """Log probability of the cluster-size counts with proportions
    integrated out under a symmetric Dirichlet(tau) prior."""
    sizes = np.asarray(sizes, dtype=np.float64)
    if sizes.size == 0:
        raise ValueError("sizes must be nonempty")
    if np.any(sizes < 1):
        raise ValueError("cluster sizes must be >= 1 (compact the partition first)")
    if not tau > 0:
        raise ValueError("tau must be positive")
    K = sizes.size
    n = sizes.sum()
    return float(
        log_gamma(K * tau)
        + np.sum(log_gamma(sizes + tau))
        - log_gamma(n + K * tau)
        - K * log_gamma(tau)
    )


def eb_penalty(K: int, n: int) -> float:
    """Complexity charge (1/2)[(K-1) log n + (K(K+1)/2) log(n(n-1)/2)]."""
    if K < 1:
        raise ValueError("K must be >= 1")
    if n < 2:
        raise ValueError("n must be >= 2")
    pairs = n * (n - 1) / 2
    return 0.5 * ((K - 1) * np.log(n) + K * (K + 1) / 2 * np.log(pairs))


def cvrp_score(partition: Partition, n: int, mode: str = "squared") -> float:
    """Cross-validation risk of the partition's resolution.

    mode="literal" evaluates 2K/(n-1) - ((n+1)K/(n-1)) * sum(n_i/n), which
    collapses to -K because proportions sum to one; it is kept for audits.
    mode="squared" (default) uses sum((n_i/n)^2), the nondegenerate variant
    from the histogram-bandwidth literature.
    """
    if n <= 1:
        raise ValueError("n must be > 1")
    if partition.n != n:
        raise ValueError(f"partition covers {partition.n} nodes, n={n}")
    K = partition.K
    props = partition.sizes / n
    if mode == "literal":
        ssum = float(props.sum())
    elif mode == "squared":
        ssum = float(np.sum(props**2))
    else:
        raise ValueError(f"mode must be 'literal' or 'squared', got {mode!r}")
    return 2.0 * K / (n - 1) - (n + 1) * K / (n - 1) * ssum


def score_partition(graph: Graph, partition: Partition, cvrp_mode: str = "squared",
                    stats=None, hyper=None) -> SelectionScore:
    """Full score row for one candidate; stats/hyper may be passed in to
    avoid refitting when the caller already has them."""
    if stats is None:
        stats = block_stats(graph, partition)
    if hyper is None:
        hyper = fit_hyperparams(stats)
    fit = (
        marginal_loglik(stats, hyper.alpha0, hyper.beta0, "diagonal")
        + marginal_loglik(stats, hyper.alpha1, hyper.beta1, "offdiagonal")
        + log_dirichlet_marginal(partition.sizes)
    )
    pen = eb_penalty(partition.K, partition.n)
    cv = cvrp_score(partition, partition.n, mode=cvrp_mode)
    return SelectionScore(K=partition.K, j_z=float(fit), penalty=float(pen),
                          total=float(fit) - float(pen), cvrp=float(cv), hyper=hyper)


def pick_best(scores, criterion: str) -> int:
    """Index of the winning score row. criterion="EB" maximizes total =
    j_z - penalty; criterion="CVRP" minimizes the cvrp column. Exact ties
    go to the smaller K, then to input order."""
    if criterion not in ("EB", "CVRP"):
        raise ValueError(f"criterion must be 'EB' or 'CVRP', got {criterion!r}")
    best_idx = 0
    for i in range(1, len(scores)):
        cur, best = scores[i], scores[best_idx]
        if criterion == "EB":
            better = cur.total > best.total or (cur.total == best.total and cur.K < best.K)
        else:
            better = cur.cvrp < best.cvrp or (cur.cvrp == best.cvrp and cur.K < best.K)
        if better:
            best_idx = i
    return best_idx


def scores_to_csv(scores, path):
    """Write the score table: K,j_z,penalty,total,cvrp,alpha0,beta0,alpha1,beta1."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["K", "j_z", "penalty", "total", "cvrp",
                         "alpha0", "beta0", "alpha1", "beta1"])
        for s in scores:
            writer.writerow([s.K, repr(s.j_z), repr(s.penalty), repr(s.total),
                             repr(s.cvrp), repr(s.hyper.alpha0), repr(s.hyper.beta0),
                             repr(s.hyper.alpha1), repr(s.hyper.beta1)])
