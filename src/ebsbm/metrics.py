"""Comparison metrics and evaluation records.

Includes the pairwise squared error between two block models, the
reference cluster count that minimizes the MLE's error curve, mean
absolute deviations of selected cluster counts, the annotation-based
ground-truth connectivity, and the held-out likelihood protocol pieces
(node splitting and the test log-likelihood). Both the squared error and
the test log-likelihood work on block counts, never on n x n matrices.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .estimator import mle_estimate
from .graph import BlockStats, Graph, Partition, block_stats, check_connectivity

_CLAMP = 1e-9  # probability clipping for log terms


def mse_sbm(est_theta, est_partition: Partition, true_theta,
            true_partition: Partition) -> float:
    """Mean squared difference of the estimated and true connection
    probabilities over ordered node pairs i != j, in O(n + cells^2).

    Nodes in one (estimated, true) label cell share every difference, so
    cells c, d weigh w_c * w_d ordered pairs, or w_c * (w_c - 1) if c = d.
    """
    if est_partition.n != true_partition.n:
        raise ValueError("partitions cover different node counts")
    est_theta = check_connectivity(est_theta, est_partition.K, "est_theta")
    true_theta = check_connectivity(true_theta, true_partition.K, "true_theta")
    n = est_partition.n
    if n < 2:
        return 0.0
    cells, first, w = np.unique((est_partition.labels - 1) * true_partition.K
                                + (true_partition.labels - 1),
                                return_index=True, return_counts=True)
    # cells in order of first node, so a relabelled partition sums to the
    # same bits and k_tilde's exact ties survive, as with the pairwise mean
    order = np.argsort(first)
    a, c = np.divmod(cells[order], true_partition.K)
    w = w[order]
    d = (est_theta[np.ix_(a, a)] - true_theta[np.ix_(c, c)]) ** 2
    pairs = np.outer(w, w) - np.diag(w)
    return float(np.sum(pairs * d)) / (n * (n - 1))


def k_tilde(curve) -> int:
    """K minimizing an (K, mse) curve; ties resolve to the smallest K."""
    points = list(curve)
    if not points:
        raise ValueError("curve must be nonempty")
    best_k, best_v = points[0]
    for k, v in points[1:]:
        if v < best_v or (v == best_v and k < best_k):
            best_k, best_v = k, v
    return int(best_k)


def deviation_metrics(k_hats, k_star: int, k_tildes):
    """Mean absolute deviations of selections from the true count and from
    each replicate's error-minimizing count."""
    k_hats = np.asarray(list(k_hats), dtype=np.float64)
    k_tildes = np.asarray(list(k_tildes), dtype=np.float64)
    if k_hats.size != k_tildes.size or k_hats.size == 0:
        raise ValueError("k_hats and k_tildes must have equal positive length")
    e_star = float(np.mean(np.abs(k_hats - k_star)))
    e_tilde = float(np.mean(np.abs(k_hats - k_tildes)))
    return e_star, e_tilde


def theta_star(graph: Graph, true_partition: Partition) -> np.ndarray:
    """Empirical block frequencies under an annotated partition; blocks
    without pairs carry the global edge density."""
    return mle_estimate(block_stats(graph, true_partition)).theta


def split_nodes(n: int, fraction: float = 0.7, seed: int = 0):
    """Uniform train/test node split without replacement.

    Train size is round-half-up of fraction * n, and must leave both sides
    nonempty. Returns sorted index arrays whose disjoint union is 0..n-1;
    deterministic given the seed.
    """
    if not (0 < fraction < 1):
        raise ValueError("fraction must lie strictly between 0 and 1")
    m = int(np.floor(fraction * n + 0.5))
    if not 0 < m < n:
        raise ValueError(f"fraction={fraction} of n={n} nodes leaves "
                         f"{'no train' if m == 0 else 'no test'} node")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    train = np.sort(perm[:m])
    test = np.sort(perm[m:])
    return train, test


def test_loglik(theta_hat, heldout: BlockStats) -> float:
    """Log-likelihood of the held-out edge variables from their block
    counts: the sum over blocks a <= b of x log(theta) + (m - x) log(1 -
    theta). Estimated probabilities are clipped to [1e-9, 1 - 1e-9]
    before the logs.
    """
    theta_hat = check_connectivity(theta_hat, heldout.K, "theta_hat")
    x, m = heldout.edge_counts, heldout.pair_counts
    iu = np.triu_indices(heldout.K)
    probs = np.clip(theta_hat[iu], _CLAMP, 1 - _CLAMP)
    return float(np.sum(x[iu] * np.log(probs) + (m - x)[iu] * np.log1p(-probs)))


@dataclass(frozen=True)
class ExperimentRecord:
    """Per-replicate, per-input-K evaluation row."""

    replicate: int
    K_input: int
    K_returned: int
    mse_mle: float
    mse_eb: float
    mse_vbem: float
    scores: list = field(default_factory=list)
    seed: int = 0

    def __post_init__(self):
        if self.K_returned > self.K_input:
            raise ValueError("K_returned cannot exceed K_input")
        for name in ("mse_mle", "mse_eb", "mse_vbem"):
            v = getattr(self, name)
            if np.isfinite(v) and v < 0:
                raise ValueError(f"{name} must be nonnegative")

    def to_json_dict(self):
        return {**vars(self), "scores": [s.to_json_dict() for s in self.scores]}


def write_records_jsonl(records, path):
    """One sorted-key JSON document per line; byte-stable given equal records."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_json_dict(), sort_keys=True,
                                separators=(",", ":")))
            fh.write("\n")


def summarize_records(records):
    """Per-input-K medians of the error columns and of the per-replicate
    ratios of the pooled estimate against each baseline."""
    by_k = {}
    for r in records:
        by_k.setdefault(r.K_input, []).append(r)
    rows = []
    for K in sorted(by_k):
        group = by_k[K]
        mle = np.array([g.mse_mle for g in group])
        eb = np.array([g.mse_eb for g in group])
        vb = np.array([g.mse_vbem for g in group])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio_mle = np.where(mle > 0, eb / mle, np.nan)
            ratio_vb = np.where(vb > 0, eb / vb, np.nan)

        def med(a):
            return float(np.nanmedian(a)) if np.any(np.isfinite(a)) else float("nan")

        rows.append({
            "K": K,
            "replicates": len(group),
            "median_mse_mle": med(mle),
            "median_mse_eb": med(eb),
            "median_mse_vbem": med(vb),
            "median_ratio_eb_mle": med(ratio_mle),
            "median_ratio_eb_vbem": med(ratio_vb),
        })
    return rows


def write_table(path, header, rows):
    """A CSV table: a float cell is its repr, None an empty cell, and any
    other cell is written as is."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([repr(v) if isinstance(v, float) else v for v in row] for row in rows)


def write_summary_csv(rows, path):
    cols = ["K", "replicates", "median_mse_mle", "median_mse_eb",
            "median_mse_vbem", "median_ratio_eb_mle", "median_ratio_eb_vbem"]
    write_table(path, cols, ([row[c] for c in cols] for row in rows))
