import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ebsbm.errors import DegeneratePartitionError
from ebsbm.graph import (
    BlockStats,
    Graph,
    Partition,
    block_counts,
    block_stats,
    check_connectivity,
    compact_partition,
    induced_subgraph,
    relabel_nodes,
)
from ebsbm.estimator import ConnectivityEstimate
from ebsbm.graphon import StepGraphon
from ebsbm.samplers import SbmSpec
from helpers import brute_force_block_counts


def make(n, edges):
    return Graph(n=n, edges=frozenset(edges))


def sorted_block_counts(graph, labels0, K):
    """block_counts with each edge's label pair ordered by np.sort, the
    form the minimum/maximum of the two columns replaced."""
    a, b = np.sort(labels0[graph.edges], axis=1).T
    upper = np.bincount(a * K + b, minlength=K * K).reshape(K, K)
    sizes = np.bincount(labels0, minlength=K)
    pairs = np.outer(sizes, sizes)
    np.fill_diagonal(pairs, sizes * (sizes - 1) // 2)
    return upper + np.triu(upper, 1).T, pairs


class TestGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            make(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            make(3, [(0, 3)])
        with pytest.raises(ValueError):
            make(3, [(2, 1)])

    def test_dedup_and_counts(self):
        g = make(4, [(0, 1), (0, 1), (2, 3)])
        assert g.edge_count == 2


class TestEdgeArray:
    PAIRS = [(2, 3), (0, 1), (1, 3), (0, 2)]

    def test_input_forms_give_identical_read_only_edges(self):
        forms = [frozenset(self.PAIRS), list(self.PAIRS), np.array(self.PAIRS)]
        graphs = [Graph(n=4, edges=f) for f in forms]
        for g in graphs:
            assert g.edges.dtype == np.int64 and g.edges.shape == (4, 2)
            assert np.array_equal(g.edges, sorted(self.PAIRS))
            with pytest.raises(ValueError):
                g.edges[0, 0] = 3  # read-only
        assert graphs[0] == graphs[1] == graphs[2]
        assert len({hash(g) for g in graphs}) == 1

    def test_duplicate_pairs_collapse(self):
        for edges in ([(0, 1), (2, 3), (0, 1), (0, 1)], np.array([[2, 3], [0, 1], [2, 3]])):
            g = Graph(n=4, edges=edges)
            assert np.array_equal(g.edges, [[0, 1], [2, 3]])
            assert g.edge_count == 2

    def test_stored_edges_same_bytes_for_any_input_order(self):
        # reference: the sorted unique keys i * n + j split back into pairs
        n = 50
        pairs = np.array(sorted({(int(i), int(j)) for i, j in
                                 np.random.default_rng(0).integers(0, n, (300, 2)) if i < j}))
        key = np.unique(pairs[:, 0] * n + pairs[:, 1])
        want = np.column_stack((key // n, key % n))
        shuffled = pairs[np.random.default_rng(1).permutation(len(pairs))]
        for edges in (pairs, shuffled, np.concatenate((pairs, pairs[::3])),
                      np.asfortranarray(pairs), [tuple(p) for p in pairs]):
            g = Graph(n=n, edges=edges)
            assert g.edges.flags.c_contiguous and g.edges.dtype == np.int64
            assert g.edges.tobytes() == want.tobytes() and g.edges.shape == want.shape

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 40), st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)),
                                        max_size=120),
           st.integers(0, 2**32 - 1))
    def test_shuffled_duplicates_match_np_unique(self, n, raw, seed):
        # oracle: np.unique of the keys i * n + j, split back into pairs
        pairs = np.array([(min(i, j), max(i, j)) for i, j in raw
                          if i != j and max(i, j) < n], dtype=np.int64).reshape(-1, 2)
        rng = np.random.default_rng(seed)
        edges = np.concatenate((pairs, pairs[rng.integers(0, 2, len(pairs)) == 1]))
        edges = edges[rng.permutation(len(edges))]
        key = np.unique(edges[:, 0] * n + edges[:, 1])
        want = np.column_stack((key // n, key % n)).reshape(-1, 2)
        g = Graph(n=n, edges=edges)
        assert g.edges.tobytes() == want.tobytes() and g.edges.shape == want.shape

    def test_empty_edges(self):
        for edges in ([], frozenset(), np.zeros((0, 2), dtype=np.int64)):
            g = Graph(n=3, edges=edges)
            assert g.edges.shape == (0, 2) and g.edge_count == 0

    def test_input_array_is_copied(self):
        raw = np.array([[0, 1], [1, 2]])
        g = Graph(n=3, edges=raw)
        raw[0] = [0, 2]
        assert np.array_equal(g.edges, [[0, 1], [1, 2]])

    def test_array_input_validated(self):
        with pytest.raises(ValueError, match=r"self-loop \(1, 1\)"):
            Graph(n=3, edges=np.array([[0, 1], [1, 1]]))
        with pytest.raises(ValueError, match=r"edge \(2, 1\) must satisfy"):
            Graph(n=3, edges=np.array([[2, 1]]))
        with pytest.raises(ValueError, match=r"edge \(0, 3\) must satisfy"):
            Graph(n=3, edges=np.array([[0, 3]]))
        with pytest.raises(ValueError, match=r"edge \(-1, 2\) must satisfy"):
            Graph(n=3, edges=np.array([[-1, 2]]))
        with pytest.raises(ValueError):
            Graph(n=3, edges=np.array([0, 1, 2]))

    def test_value_equality(self):
        g = Graph(n=4, edges=[(0, 1)])
        assert g == Graph(n=4, edges=np.array([[0, 1]]))
        assert g != Graph(n=5, edges=[(0, 1)])
        assert g != Graph(n=4, edges=[(0, 2)])


class TestPartition:
    def test_sizes(self):
        p = Partition(labels=np.array([1, 1, 2, 2, 2]), K=2)
        assert np.array_equal(p.sizes, [2, 3])
        assert p.n == 5

    def test_empty_cluster_rejected(self):
        with pytest.raises(DegeneratePartitionError):
            Partition(labels=np.array([1, 1, 3]), K=3)

    def test_label_range_checked(self):
        with pytest.raises(ValueError):
            Partition(labels=np.array([0, 1]), K=2)
        with pytest.raises(ValueError):
            Partition(labels=np.array([1, 4]), K=3)

    def test_compact(self):
        p = compact_partition([7, 7, 2, 9])
        assert p.K == 3
        assert list(p.labels) == [2, 2, 1, 3]

    def test_equality(self):
        a = Partition.from_labels([1, 2, 1])
        b = Partition.from_labels([1, 2, 1])
        assert a == b and hash(a) == hash(b)


class TestBlockStats:
    def test_example_four_nodes(self):
        # oracle: exhaustive pair enumeration
        n, edges, labels = 4, [(0, 1), (0, 2), (2, 3)], [1, 1, 2, 2]
        ox, om = brute_force_block_counts(n, edges, labels)
        s = block_stats(make(n, edges), Partition.from_labels(labels))
        assert np.array_equal(s.edge_counts, ox)
        assert np.array_equal(s.pair_counts, om)
        assert np.array_equal(s.edge_counts, [[1, 1], [1, 1]])
        assert np.array_equal(s.pair_counts, [[1, 4], [4, 1]])

    def test_single_block(self):
        g = make(5, [(0, 1), (2, 4), (1, 3)])
        s = block_stats(g, Partition.from_labels([1] * 5))
        assert s.edge_counts[0, 0] == 3
        assert s.pair_counts[0, 0] == 10

    def test_empty_graph(self):
        g = make(6, [])
        s = block_stats(g, Partition.from_labels([1, 1, 2, 2, 3, 3]))
        assert s.edge_counts.sum() == 0
        assert np.array_equal(np.diag(s.pair_counts), [1, 1, 1])
        assert s.pair_counts[0, 1] == 4

    def test_singleton_cluster_zero_pairs(self):
        g = make(3, [(0, 1)])
        s = block_stats(g, Partition.from_labels([1, 1, 2]))
        assert s.pair_counts[1, 1] == 0
        assert s.edge_counts[1, 1] == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            block_stats(make(4, []), Partition.from_labels([1, 1, 2]))

    def test_invariant_validation(self):
        with pytest.raises(ValueError):
            BlockStats(K=1, edge_counts=np.array([[3]]), pair_counts=np.array([[2]]))
        with pytest.raises(ValueError):
            BlockStats(K=2, edge_counts=np.array([[0, 1], [0, 0]]),
                       pair_counts=np.array([[1, 2], [2, 1]]))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 16), st.integers(0, 10_000), st.integers(1, 4))
    def test_total_edges_preserved_random(self, n, seed, K):
        rng = np.random.default_rng(seed)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        mask = rng.random(len(pairs)) < 0.4
        edges = [p for p, keep in zip(pairs, mask) if keep]
        labels = rng.integers(1, K + 1, size=n)
        part = compact_partition(labels)
        s = block_stats(make(n, edges), part)
        assert s.total_edges == len(edges)
        ox, om = brute_force_block_counts(n, edges, list(part.labels))
        assert np.array_equal(s.edge_counts, ox)
        assert np.array_equal(s.pair_counts, om)

    @pytest.mark.parametrize("K", range(1, 13))
    def test_totals_are_upper_triangle_sums(self, K):
        rng = np.random.default_rng(K)
        m = rng.integers(0, 10**9, size=(K, K))
        m = m + m.T
        x = rng.integers(0, m + 1)
        x = np.triu(x) + np.triu(x, 1).T
        s = BlockStats(K=K, edge_counts=x, pair_counts=m)
        iu = np.triu_indices(K)
        assert s.total_edges == int(x[iu].sum())
        assert s.total_pairs == int(m[iu].sum())
        assert type(s.total_edges) is int and type(s.total_pairs) is int

    def test_relabel_within_cluster_invariant(self):
        rng = np.random.default_rng(5)
        n = 12
        labels = np.array([1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3])
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [p for p in pairs if rng.random() < 0.5]
        base = block_stats(make(n, edges), Partition.from_labels(labels))
        # swap two nodes of cluster 2 (nodes 4 and 7)
        perm = np.arange(n)
        perm[4], perm[7] = 7, 4
        new_edges = [(min(perm[i], perm[j]), max(perm[i], perm[j])) for i, j in edges]
        swapped = block_stats(make(n, new_edges), Partition.from_labels(labels[np.argsort(perm)]))
        assert np.array_equal(base.edge_counts, swapped.edge_counts)

    def test_block_counts_allows_empty_cluster(self):
        g = make(3, [(0, 1)])
        x, m = block_counts(g, np.array([0, 0, 0]), K=2)
        assert m[1, 1] == 0 and m[0, 1] == 0
        assert x[0, 0] == 1 and x.sum() == 1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 8), st.floats(0.0, 1.0),
           st.integers(0, 2**32 - 1))
    @example(n=7, K=1, density=0.5, seed=0)  # one cluster
    @example(n=9, K=3, density=0.0, seed=1)  # no edges
    @example(n=4, K=8, density=0.6, seed=2)  # clusters with no nodes
    def test_block_counts_match_sorted_pairs(self, n, K, density, seed):
        rng = np.random.default_rng(seed)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
        g = make(n, edges)
        labels0 = rng.integers(0, K, size=n)
        got, want = block_counts(g, labels0, K), sorted_block_counts(g, labels0, K)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("K", [1, 2, 3, 10])
    def test_offdiagonal_counts_in_triu_order(self, K):
        # distinct entries, so a block out of np.triu_indices order shows
        rng = np.random.default_rng(K)
        m = rng.permutation(K * K).reshape(K, K) * 2 + 10
        m = m + m.T
        x = m // 3
        s = BlockStats(K=K, edge_counts=x, pair_counts=m)
        iu = np.triu_indices(K, 1)
        assert np.array_equal(np.flatnonzero(~np.tri(K, dtype=bool)),
                              np.ravel_multi_index(iu, (K, K)))
        ox, om = s.offdiagonal_counts()
        assert np.array_equal(ox, x[iu]) and np.array_equal(om, m[iu])
        # the vectors are the caller's own: writing them leaves the stats be
        ox[:] = -1
        om[:] = -1
        assert np.array_equal(s.edge_counts, x) and np.array_equal(s.pair_counts, m)
        assert np.array_equal(s.offdiagonal_counts()[0], x[iu])


@pytest.mark.parametrize("build", [
    lambda t: check_connectivity(t, 2),
    lambda t: ConnectivityEstimate(theta=t, method="MLE"),
    lambda t: StepGraphon(boundaries=[0.0, 0.5, 1.0], theta=t),
    lambda t: SbmSpec(pi=[0.5, 0.5], theta=t),
], ids=["check", "estimate", "step", "sbm"])
def test_connectivity_checked_alike(build):
    # square, symmetric and in [0, 1], each to within 1e-12 (the metrics'
    # BAD_THETAS cases cover mse_sbm and test_loglik)
    build(np.array([[1 + 1e-12, 0.1], [0.1 + 5e-13, -1e-12]]))
    for bad in ([[0.5, 0.1, 0.0]] * 2, [[0.5, 0.1 + 1e-11], [0.1, 0.5]],
                [[1 + 1e-11, 0.1], [0.1, 0.5]], [[0.5, -1e-11], [-1e-11, 0.5]],
                [[np.nan, 0.1], [0.1, 0.5]]):
        with pytest.raises(ValueError):
            build(np.array(bad))


def test_induced_subgraph():
    g = make(5, [(0, 1), (1, 2), (3, 4), (0, 4)])
    sub, ids = induced_subgraph(g, [0, 1, 4])
    assert list(ids) == [0, 1, 4]
    assert sub.n == 3
    assert np.array_equal(sub.edges, [[0, 1], [0, 2]])


def test_induced_subgraph_rejects_bad_nodes():
    g = make(4, [(0, 1)])
    with pytest.raises(ValueError):
        induced_subgraph(g, [])
    with pytest.raises(ValueError):
        induced_subgraph(g, [0, 4])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 25), st.integers(0, 2**32 - 1))
def test_relabel_nodes_matches_pairwise_mapping(n, seed):
    # oracle: map every edge through a dict, keep the fully kept ones
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
    order = rng.permutation(n)[: rng.integers(1, n + 1)]
    pos = {int(v): p for p, v in enumerate(order)}
    want = sorted({(min(pos[i], pos[j]), max(pos[i], pos[j]))
                   for i, j in edges if i in pos and j in pos})
    got = relabel_nodes(make(n, edges), order)
    assert got.n == order.size
    assert np.array_equal(got.edges.reshape(-1, 2), np.array(want, dtype=np.int64).reshape(-1, 2))
