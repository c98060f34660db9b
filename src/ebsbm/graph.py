"""Core graph, partition and block-statistics types.

Nodes are 0-indexed integers. Cluster labels run from 1 to K so that label
files and reported tables read naturally; all internal matrix indexing
subtracts one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegeneratePartitionError


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph: node count plus an upper-triangular edge set.

    Edges are unordered pairs (i, j) with 0 <= i < j < n. Self-loops are
    rejected at construction.
    """

    n: int
    edges: frozenset

    def __post_init__(self):
        if int(self.n) < 1:
            raise ValueError("graph needs at least one node")
        object.__setattr__(self, "n", int(self.n))
        clean = frozenset((int(i), int(j)) for i, j in self.edges)
        for i, j in clean:
            if i == j:
                raise ValueError(f"self-loop ({i}, {i}) is not allowed")
            if not (0 <= i < j < self.n):
                raise ValueError(f"edge ({i}, {j}) must satisfy 0 <= i < j < n={self.n}")
        object.__setattr__(self, "edges", clean)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def pair_count(self) -> int:
        return self.n * (self.n - 1) // 2

    def density(self) -> float:
        """Fraction of node pairs that are connected (0 for a single node)."""
        return self.edge_count / self.pair_count if self.n > 1 else 0.0

    @cached_property
    def _adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=np.float64)
        if self.edges:
            idx = np.array(list(self.edges), dtype=np.int64)
            a[idx[:, 0], idx[:, 1]] = 1.0
            a[idx[:, 1], idx[:, 0]] = 1.0
        return _freeze(a)

    @cached_property
    def _memo(self) -> dict:
        """Arrays other modules derive from this graph, keyed by name."""
        return {}

    def adjacency(self) -> np.ndarray:
        """Dense symmetric 0/1 adjacency matrix (read-only, cached)."""
        return self._adjacency

    def edge_array(self) -> np.ndarray:
        """Edges as a sorted (m, 2) integer array, deterministic order."""
        if not self.edges:
            return np.zeros((0, 2), dtype=np.int64)
        return np.array(sorted(self.edges), dtype=np.int64)


@dataclass(frozen=True, eq=False)
class Partition:
    """Assignment of n nodes to clusters 1..K with no empty cluster."""

    labels: np.ndarray
    K: int

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64).copy()
        if labels.ndim != 1 or labels.size == 0:
            raise ValueError("labels must be a nonempty 1-d array")
        K = int(self.K)
        if K < 1:
            raise ValueError("K must be >= 1")
        if labels.min() < 1 or labels.max() > K:
            raise ValueError(f"labels must lie in 1..{K}")
        sizes = np.bincount(labels, minlength=K + 1)[1:]
        if np.any(sizes == 0):
            empty = [k + 1 for k in range(K) if sizes[k] == 0]
            raise DegeneratePartitionError(f"empty cluster(s): {empty}")
        object.__setattr__(self, "labels", _freeze(labels))
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "_sizes", _freeze(sizes.astype(np.int64)))

    @property
    def n(self) -> int:
        return self.labels.size

    @property
    def sizes(self) -> np.ndarray:
        """Cluster cardinalities n_1..n_K (sizes[k-1] is the size of cluster k)."""
        return self._sizes

    @classmethod
    def from_labels(cls, labels) -> "Partition":
        labels = np.asarray(labels, dtype=np.int64)
        return cls(labels=labels, K=int(labels.max()))

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return self.K == other.K and np.array_equal(self.labels, other.labels)

    def __hash__(self):
        return hash((self.K, self.labels.tobytes()))


def compact_partition(raw_labels) -> Partition:
    """Map arbitrary integer labels onto 1..K' (sorted unique order)."""
    raw = np.asarray(raw_labels, dtype=np.int64)
    uniq, inv = np.unique(raw, return_inverse=True)
    return Partition(labels=inv + 1, K=uniq.size)


@dataclass(frozen=True, eq=False)
class BlockStats:
    """Per-block edge counts and pair counts for a K-cluster partition.

    edge_counts[a-1, b-1] is the number of observed edges between clusters
    a and b; pair_counts holds the number of available node pairs, with the
    diagonal using size*(size-1)/2 because self-loops do not exist.
    """

    K: int
    edge_counts: np.ndarray
    pair_counts: np.ndarray

    def __post_init__(self):
        K = int(self.K)
        x = np.asarray(self.edge_counts, dtype=np.int64).copy()
        m = np.asarray(self.pair_counts, dtype=np.int64).copy()
        if x.shape != (K, K) or m.shape != (K, K):
            raise ValueError(f"count matrices must be {K}x{K}")
        if not np.array_equal(x, x.T) or not np.array_equal(m, m.T):
            raise ValueError("count matrices must be symmetric")
        if np.any(x < 0) or np.any(x > m):
            raise ValueError("need 0 <= edge_counts <= pair_counts elementwise")
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "edge_counts", _freeze(x))
        object.__setattr__(self, "pair_counts", _freeze(m))

    @property
    def total_edges(self) -> int:
        iu = np.triu_indices(self.K)
        return int(self.edge_counts[iu].sum())

    @property
    def total_pairs(self) -> int:
        iu = np.triu_indices(self.K)
        return int(self.pair_counts[iu].sum())

    def diagonal_counts(self):
        """(edges, pairs) vectors over the K diagonal blocks."""
        return np.diag(self.edge_counts).copy(), np.diag(self.pair_counts).copy()

    def offdiagonal_counts(self):
        """(edges, pairs) vectors over the K(K-1)/2 blocks with a < b."""
        iu = np.triu_indices(self.K, k=1)
        return self.edge_counts[iu].copy(), self.pair_counts[iu].copy()


def block_counts(graph: Graph, labels0: np.ndarray, K: int):
    """Raw block counting for 0-based labels; empty clusters are permitted.

    Used by :func:`block_stats` and by train/test protocols where a split
    may leave some clusters without nodes.
    """
    labels0 = np.asarray(labels0, dtype=np.int64)
    if labels0.size != graph.n:
        raise ValueError(f"labels cover {labels0.size} nodes, graph has {graph.n}")
    if labels0.size and (labels0.min() < 0 or labels0.max() >= K):
        raise ValueError(f"0-based labels must lie in 0..{K - 1}")
    upper = np.zeros((K, K), dtype=np.int64)
    e = graph.edge_array()
    if e.size:
        a = labels0[e[:, 0]]
        b = labels0[e[:, 1]]
        np.add.at(upper, (np.minimum(a, b), np.maximum(a, b)), 1)
    edge_counts = upper + np.triu(upper, 1).T
    sizes = np.bincount(labels0, minlength=K)
    pair_counts = np.outer(sizes, sizes)
    np.fill_diagonal(pair_counts, sizes * (sizes - 1) // 2)
    return edge_counts, pair_counts.astype(np.int64)


def block_stats(graph: Graph, partition: Partition) -> BlockStats:
    """Count edges and node pairs per block of the partition.

    Both returned matrices are symmetric; summing edge_counts over a <= b
    reproduces the graph's edge count exactly.
    """
    if partition.n != graph.n:
        raise ValueError(f"partition covers {partition.n} nodes, graph has {graph.n}")
    edge_counts, pair_counts = block_counts(graph, partition.labels - 1, partition.K)
    return BlockStats(K=partition.K, edge_counts=edge_counts, pair_counts=pair_counts)


def expand_theta(theta, partition: Partition) -> np.ndarray:
    """Lift a K x K block matrix to the n x n node-pair matrix.

    Entry (i, j) is theta[label_i, label_j]; the diagonal carries the
    within-block value but is ignored by every downstream metric.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim != 2 or theta.shape[0] != theta.shape[1]:
        raise ValueError("theta must be square")
    if theta.shape[0] != partition.K:
        raise ValueError(f"theta is {theta.shape[0]}x{theta.shape[0]}, partition has K={partition.K}")
    if not np.allclose(theta, theta.T, atol=1e-12):
        raise ValueError("theta must be symmetric")
    if theta.min() < -1e-12 or theta.max() > 1 + 1e-12:
        raise ValueError("theta entries must lie in [0, 1]")
    z0 = partition.labels - 1
    return theta[np.ix_(z0, z0)]


def induced_subgraph(graph: Graph, nodes) -> tuple[Graph, np.ndarray]:
    """Subgraph on the given nodes, reindexed to 0..len(nodes)-1.

    Returns the subgraph together with the sorted original node ids, so
    position p in the subgraph corresponds to original node ids[p].
    """
    ids = np.unique(np.asarray(nodes, dtype=np.int64))
    if ids.size == 0:
        raise ValueError("need at least one node")
    if ids.min() < 0 or ids.max() >= graph.n:
        raise ValueError("node ids out of range")
    pos = -np.ones(graph.n, dtype=np.int64)
    pos[ids] = np.arange(ids.size)
    keep = [(int(pos[i]), int(pos[j])) for i, j in graph.edges if pos[i] >= 0 and pos[j] >= 0]
    return Graph(n=ids.size, edges=frozenset(keep)), ids
