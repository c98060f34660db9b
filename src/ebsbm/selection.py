"""Scoring and selection of candidate partitions.

The main criterion combines the blockwise-integrated likelihood at fitted
hyperparameters with the marginal of the label counts under a symmetric
Dirichlet(1/2) prior, minus a complexity penalty that charges the K - 1
membership proportions against log n and the K(K+1)/2 block probabilities
against the log pair count. A cross-validation risk baseline (CVRP) is
provided in two variants; see :func:`cvrp_score`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimator import HyperParams, marginal_loglik
from .graph import BlockStats, Partition, _integer
from .metrics import write_table
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
        return {**vars(self), "hyper": self.hyper.to_json_dict()}


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
    K, n = _integer("K", K, 1), _integer("n", n, 2)
    pairs = n * (n - 1) / 2
    return 0.5 * ((K - 1) * np.log(n) + K * (K + 1) / 2 * np.log(pairs))


def cvrp_score(partition: Partition, n: int, mode: str = "squared") -> float:
    """Cross-validation risk of the partition's resolution.

    mode="literal" evaluates 2K/(n-1) - ((n+1)K/(n-1)) * sum(n_i/n), which
    collapses to -K because proportions sum to one; it is kept for audits.
    mode="squared" (default) uses sum((n_i/n)^2), the nondegenerate variant
    from the histogram-bandwidth literature, and is the one the pipeline
    scores.
    """
    n = _integer("n", n, 2)
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


def score_partition(partition: Partition, stats: BlockStats, hyper: HyperParams) -> SelectionScore:
    """Score row of a partition from its block counts and their fitted prior;
    ValueError unless `stats` has its K and s(s-1)/2 pairs in each cluster."""
    sizes = partition.sizes
    if stats.K != partition.K or np.any(np.diag(stats.pair_counts) != sizes * (sizes - 1) // 2):
        raise ValueError(f"stats are not the block counts of this {partition.K}-cluster partition")
    fit = (
        marginal_loglik(stats, hyper.alpha0, hyper.beta0, "diagonal")
        + marginal_loglik(stats, hyper.alpha1, hyper.beta1, "offdiagonal")
        + log_dirichlet_marginal(sizes)
    )
    pen = eb_penalty(partition.K, partition.n)
    cv = cvrp_score(partition, partition.n)
    return SelectionScore(K=partition.K, j_z=float(fit), penalty=float(pen),
                          total=float(fit) - float(pen), cvrp=float(cv), hyper=hyper)


def pick_best(scores, criterion: str) -> int:
    """Index of the winning score row. criterion="EB" maximizes total =
    j_z - penalty; criterion="CVRP" minimizes the cvrp column. Exact ties
    go to the smaller K, then to input order. Raises on no rows."""
    if criterion not in ("EB", "CVRP"):
        raise ValueError(f"criterion must be 'EB' or 'CVRP', got {criterion!r}")
    if not scores:
        raise ValueError("no score rows to pick from")
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
    write_table(path, ["K", "j_z", "penalty", "total", "cvrp",
                       "alpha0", "beta0", "alpha1", "beta1"],
                ([s.K, s.j_z, s.penalty, s.total, s.cvrp, s.hyper.alpha0,
                  s.hyper.beta0, s.hyper.alpha1, s.hyper.beta1] for s in scores))
