"""Core graph, partition and block-statistics types.

Nodes are 0-indexed integers. A graph is its node count and a sorted
(m, 2) edge array, nothing more; everything downstream works on that array
or on per-block edge and pair counts (:func:`block_counts`), and only
community detection builds a (sparse) matrix from it. Node renaming and
induced subgraphs share :func:`relabel_nodes`. Cluster labels run from 1
to K so that label files and reported tables read naturally; all internal
matrix indexing subtracts one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePartitionError


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph on nodes 0..n-1.

    ``edges`` is the graph's one stored form: a read-only (m, 2) int64
    array of pairs i < j, sorted by (i, j) and free of duplicates. The
    constructor accepts that array or any iterable of pairs; a self-loop,
    a reversed pair or an out-of-range pair raises ValueError. Pairs that
    already arrive sorted and unique, as the samplers' do, are kept as
    validated without a sort. Equality and hashing are on (n, edges), and
    the graph holds nothing else.
    """

    n: int
    edges: np.ndarray

    def __post_init__(self):
        n = int(self.n)
        if n < 1:
            raise ValueError("graph needs at least one node")
        e = self.edges if isinstance(self.edges, np.ndarray) else list(self.edges)
        e = np.array(e, dtype=np.int64, order="C")
        e = e.reshape(0, 2) if e.size == 0 else e
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValueError("edges must be (i, j) pairs")
        bad = (e[:, 0] < 0) | (e[:, 0] >= e[:, 1]) | (e[:, 1] >= n)
        if bad.any():
            i, j = (int(v) for v in e[bad][0])
            if i == j:
                raise ValueError(f"self-loop ({i}, {i}) is not allowed")
            raise ValueError(f"edge ({i}, {j}) must satisfy 0 <= i < j < n={n}")
        key = e[:, 0] * n
        key += e[:, 1]
        if not np.all(key[1:] > key[:-1]):
            # not yet sorted and unique: sort the keys in place, drop
            # repeats (far faster than np.unique on int64) and split them
            # back into e, the constructor's own copy, when none dropped
            key.sort()
            repeat = key[1:] == key[:-1]
            if repeat.any():
                key = key[np.concatenate(([True], ~repeat))]
                e = np.empty((key.size, 2), dtype=np.int64)
            np.floor_divide(key, n, out=e[:, 0])
            np.remainder(key, n, out=e[:, 1])
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", _freeze(e))

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.edges, other.edges)

    def __hash__(self):
        return hash((self.n, self.edges.tobytes()))

    @property
    def edge_count(self) -> int:
        return self.edges.shape[0]


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


def check_connectivity(theta, K: int | None = None, name: str = "theta") -> np.ndarray:
    """theta as a new float64 K x K matrix (any square size if K is None)
    that is symmetric and has entries in [0, 1], both to within 1e-12."""
    t = np.array(theta, dtype=np.float64)
    if t.ndim != 2 or t.shape[0] != t.shape[1] or K not in (None, t.shape[0]):
        size = "a square" if K is None else f"{K}x{K}"
        raise ValueError(f"{name} must be {size} matrix, got shape {t.shape}")
    if not np.all(np.abs(t - t.T) <= 1e-12):
        raise ValueError(f"{name} must be symmetric")
    if not np.all((t >= -1e-12) & (t <= 1 + 1e-12)):
        raise ValueError(f"{name} entries must lie in [0, 1]")
    return t


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

    # the sums over a <= b of the symmetric counts, (sum + trace) / 2 exactly
    @property
    def total_edges(self) -> int:
        return (int(self.edge_counts.sum()) + int(np.trace(self.edge_counts))) // 2

    @property
    def total_pairs(self) -> int:
        return (int(self.pair_counts.sum()) + int(np.trace(self.pair_counts))) // 2

    def diagonal_counts(self):
        """(edges, pairs) vectors over the K diagonal blocks."""
        return np.diag(self.edge_counts).copy(), np.diag(self.pair_counts).copy()

    def offdiagonal_counts(self):
        """(edges, pairs) vectors over the K(K-1)/2 blocks with a < b."""
        upper = ~np.tri(self.K, dtype=bool)
        return self.edge_counts[upper], self.pair_counts[upper]


def block_counts(graph: Graph, labels0: np.ndarray, K: int):
    """Symmetric K x K (edge_counts, pair_counts) for 0-based labels;
    empty clusters are permitted. A within-block edge counts once on the
    diagonal, where a cluster of size s has s * (s - 1) / 2 pairs.

    Used by :func:`block_stats` and by train/test protocols where a split
    may leave some clusters without nodes.
    """
    labels0 = np.asarray(labels0, dtype=np.int64)
    if labels0.size != graph.n:
        raise ValueError(f"labels cover {labels0.size} nodes, graph has {graph.n}")
    if labels0.size and (labels0.min() < 0 or labels0.max() >= K):
        raise ValueError(f"0-based labels must lie in 0..{K - 1}")
    i, j = labels0[graph.edges].T
    a, b = np.minimum(i, j), np.maximum(i, j)
    upper = np.bincount(a * K + b, minlength=K * K).reshape(K, K)
    sizes = np.bincount(labels0, minlength=K)
    pairs = np.outer(sizes, sizes)
    np.fill_diagonal(pairs, sizes * (sizes - 1) // 2)
    return upper + np.triu(upper, 1).T, pairs


def block_stats(graph: Graph, partition: Partition) -> BlockStats:
    """Count edges and node pairs per block of the partition.

    Both returned matrices are symmetric; summing edge_counts over a <= b
    reproduces the graph's edge count exactly.
    """
    edge_counts, pair_counts = block_counts(graph, partition.labels - 1, partition.K)
    return BlockStats(K=partition.K, edge_counts=edge_counts, pair_counts=pair_counts)


def relabel_nodes(graph: Graph, order) -> Graph:
    """Graph with node order[p] renamed to p; edges outside `order` drop."""
    order = np.asarray(order, dtype=np.int64)
    pos = np.full(graph.n, -1, dtype=np.int64)
    pos[order] = np.arange(order.size)
    mapped = pos[graph.edges]
    if (mapped < 0).any():  # a renaming of every node drops no edge: no copy
        mapped = mapped[(mapped >= 0).all(axis=1)]
    mapped.sort(axis=1)
    return Graph(n=order.size, edges=mapped)


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
    return relabel_nodes(graph, ids), ids
