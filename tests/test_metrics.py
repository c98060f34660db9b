import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebsbm.graph import (
    BlockStats,
    Graph,
    Partition,
    block_counts,
    block_stats,
    compact_partition,
    induced_subgraph,
)
from ebsbm.graphon import build_step_graphon
from ebsbm.estimator import ConnectivityEstimate
from ebsbm.metrics import (
    ExperimentRecord,
    deviation_metrics,
    k_tilde,
    mse_sbm,
    split_nodes,
    theta_star,
)
from ebsbm.metrics import test_loglik as held_out_loglik
from ebsbm.samplers import affiliation_theta, sample_sbm
from helpers import brute_force_block_counts, step_vs_step_mse, two_cliques_graph


def random_theta(rng, K):
    t = rng.random((K, K))
    t = (t + t.T) / 2
    t[rng.random((K, K)) < 0.1] = 0.0  # exercise the log clipping
    return np.minimum(t, t.T)


def random_partition(rng, n, K, singletons):
    if singletons:
        return compact_partition(rng.permutation(n))
    return compact_partition(rng.integers(0, K, size=n))


def mse_reference(est_theta, est_p, true_theta, true_p):
    # n x n expansion, mean over ordered pairs i != j
    a, c = est_p.labels - 1, true_p.labels - 1
    diff = (np.asarray(est_theta)[np.ix_(a, a)] - np.asarray(true_theta)[np.ix_(c, c)]) ** 2
    off = ~np.eye(a.size, dtype=bool)
    return float(diff[off].mean()) if a.size > 1 else 0.0


def heldout_pairs(train, test):
    return ([(i, j) for i in train for j in test]
            + [(i, j) for a, i in enumerate(test) for j in test[a + 1:]])


def loglik_reference(edges, labels, theta, train, test):
    # enumerate the held-out pairs one by one
    eset = set(edges)
    total = 0.0
    for i, j in heldout_pairs(train, test):
        p = min(max(theta[labels.labels[i] - 1, labels.labels[j] - 1], 1e-9), 1 - 1e-9)
        x = (min(i, j), max(i, j)) in eset
        total += math.log(p) if x else math.log1p(-p)
    return total


def heldout_counts(graph, labels, train):
    # run_testlik_protocol's held-out counts: the whole graph's block
    # counts less those of the subgraph induced by train
    x_all, m_all = block_counts(graph, labels.labels - 1, labels.K)
    sub, ids = induced_subgraph(graph, train)
    x, m = block_counts(sub, labels.labels[ids] - 1, labels.K)
    return BlockStats(K=labels.K, edge_counts=x_all - x, pair_counts=m_all - m)


def estimate(theta):
    return ConnectivityEstimate(theta=theta, method="MLE")


def held_out(graph, labels, theta, train):
    # test_loglik on the pairs with an endpoint outside train
    return held_out_loglik(estimate(theta), heldout_counts(graph, labels, train))


# (theta, K) pairs every metric must reject
BAD_THETAS = [
    ("wrong K", np.full((1, 1), 0.5)),
    ("not square", np.full((2, 3), 0.5)),
    ("asymmetric", np.array([[0.5, 0.1], [0.2, 0.5]])),
    ("above one", np.array([[1.2, 0.1], [0.1, 0.5]])),
    ("below zero", np.array([[0.5, -0.1], [-0.1, 0.5]])),
]


class TestMseSbm:
    def test_identical_zero(self):
        p = Partition.from_labels([1, 1, 2, 2])
        t = np.array([[0.9, 0.1], [0.1, 0.8]])
        assert mse_sbm(t, p, t, p) == 0.0

    def test_constant_offset(self):
        p = Partition.from_labels([1, 1, 2, 2, 2])
        t = np.array([[0.5, 0.1], [0.1, 0.6]])
        assert mse_sbm(t + 0.05, p, t, p) == pytest.approx(0.05**2, abs=1e-15)

    def test_brute_force_three_nodes(self):
        # oracle: 6-term enumeration over ordered pairs
        true_p = Partition.from_labels([1, 1, 2])
        est_p = Partition.from_labels([1, 2, 2])
        t = np.array([[0.9, 0.1], [0.1, 0.8]])
        total = 0.0
        for i, j in itertools.permutations(range(3), 2):
            e = t[est_p.labels[i] - 1, est_p.labels[j] - 1]
            w = t[true_p.labels[i] - 1, true_p.labels[j] - 1]
            total += (e - w) ** 2
        want = total / (3 * 2)
        assert mse_sbm(t, est_p, t, true_p) == pytest.approx(want, abs=1e-15)

    def test_relabeling_invariance(self):
        p = Partition.from_labels([1, 1, 2, 2, 2])
        swapped = Partition.from_labels([2, 2, 1, 1, 1])
        t = np.array([[0.5, 0.1], [0.1, 0.6]])
        ts = t[::-1, ::-1]
        truth = (np.array([[0.7, 0.2], [0.2, 0.4]]), Partition.from_labels([1, 2, 1, 2, 1]))
        assert mse_sbm(t, p, *truth) == pytest.approx(mse_sbm(ts, swapped, *truth), abs=1e-15)

    def test_node_count_mismatch(self):
        with pytest.raises(ValueError):
            mse_sbm(np.eye(1), Partition.from_labels([1, 1]),
                    np.eye(1), Partition.from_labels([1, 1, 1]))

    def test_agrees_with_graphon_mse_on_equal_blocks(self):
        # both partitions exact equal-proportion blocks: the two error
        # metrics agree up to O(1/n) diagonal effects
        n = 40
        p = Partition.from_labels([1] * (n // 2) + [2] * (n // 2))
        t_est = np.array([[0.8, 0.2], [0.2, 0.6]])
        t_true = np.array([[0.7, 0.25], [0.25, 0.55]])
        m_sbm = mse_sbm(t_est, p, t_true, p)
        g_est = build_step_graphon(p, ConnectivityEstimate(theta=t_est, method="MLE"))
        g_true = build_step_graphon(p, ConnectivityEstimate(theta=t_true, method="MLE"))
        m_gra = step_vs_step_mse(g_est, g_true)
        assert abs(m_sbm - m_gra) <= 2 / n


    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 12), st.integers(1, 12),
           st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
    def test_matches_pairwise_expansion(self, n, k_est, k_true, est_single,
                                        true_single, seed):
        rng = np.random.default_rng(seed)
        est_p = random_partition(rng, n, k_est, est_single)
        true_p = random_partition(rng, n, k_true, true_single)
        est_t, true_t = random_theta(rng, est_p.K), random_theta(rng, true_p.K)
        want = mse_reference(est_t, est_p, true_t, true_p)
        got = mse_sbm(est_t, est_p, true_t, true_p)
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_relabelled_estimate_is_bit_identical(self):
        # k_tilde breaks exact ties by K, so a partition found again under
        # other label names must score the same float, as the pairwise mean does
        rng = np.random.default_rng(4)
        n, K = 400, 15
        true_p = compact_partition(rng.integers(0, 10, size=n))
        true_t = random_theta(rng, true_p.K)
        est_p = compact_partition(rng.integers(0, K, size=n))
        est_t = random_theta(rng, est_p.K)
        for _ in range(5):
            perm = rng.permutation(est_p.K)
            moved = Partition(labels=perm[est_p.labels - 1] + 1, K=est_p.K)
            moved_t = np.empty_like(est_t)
            moved_t[np.ix_(perm, perm)] = est_t
            assert mse_sbm(moved_t, moved, true_t, true_p) == mse_sbm(est_t, est_p, true_t, true_p)

    @pytest.mark.parametrize("case, bad", BAD_THETAS)
    def test_theta_checked(self, case, bad):
        p = Partition.from_labels([1, 2, 1])
        good = np.array([[0.5, 0.1], [0.1, 0.5]])
        with pytest.raises(ValueError):
            mse_sbm(bad, p, good, p)
        with pytest.raises(ValueError):
            mse_sbm(good, p, bad, p)


class TestKTilde:
    def test_argmin(self):
        assert k_tilde([(1, 0.5), (2, 0.1), (3, 0.2)]) == 2

    def test_single(self):
        assert k_tilde([(7, 0.3)]) == 7

    def test_tie_smallest(self):
        assert k_tilde([(3, 0.1), (2, 0.1)]) == 2

    def test_empty(self):
        with pytest.raises(ValueError):
            k_tilde([])


class TestDeviationMetrics:
    def test_exact_recovery(self):
        e_star, e_tilde = deviation_metrics([10, 10, 10], 10, [10, 9, 11])
        assert e_star == 0.0
        assert e_tilde == pytest.approx(2 / 3)

    def test_symmetric_misses(self):
        e_star, _ = deviation_metrics([9, 11], 10, [9, 11])
        assert e_star == 1.0

    def test_all_tens_table_row(self):
        e_star, e_tilde = deviation_metrics([10] * 100, 10, [10] * 100)
        assert e_star == 0.0 and e_tilde == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            deviation_metrics([1, 2], 1, [1])


class TestThetaStar:
    def test_two_cliques(self):
        n, edges, labels = two_cliques_graph(6)
        g = Graph(n=n, edges=frozenset(edges))
        t = theta_star(g, Partition.from_labels(labels))
        assert t[0, 0] == 1.0 and t[1, 1] == 1.0
        assert t[0, 1] == 0.0

    def test_matches_block_frequencies(self):
        rng = np.random.default_rng(8)
        n = 30
        labels = rng.integers(1, 4, size=n)
        labels[:3] = [1, 2, 3]
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [p for p in pairs if rng.random() < 0.3]
        g = Graph(n=n, edges=frozenset(edges))
        part = Partition.from_labels(labels)
        s = block_stats(g, part)
        t = theta_star(g, part)
        ok = s.pair_counts > 0
        assert np.allclose(t[ok], s.edge_counts[ok] / s.pair_counts[ok])


class TestSplitNodes:
    def test_sizes(self):
        train, test = split_nodes(10, fraction=0.7, seed=0)
        assert train.size == 7 and test.size == 3

    def test_deterministic(self):
        a = split_nodes(50, fraction=0.7, seed=3)
        b = split_nodes(50, fraction=0.7, seed=3)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_round_half_up(self):
        # oracle: floor(0.7 * 1005 + 0.5) = 704
        want = math.floor(0.7 * 1005 + 0.5)
        train, test = split_nodes(1005, fraction=0.7, seed=1)
        assert train.size == want == 704
        assert test.size == 1005 - 704

    def test_disjoint_union(self):
        train, test = split_nodes(31, fraction=0.4, seed=5)
        assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(31))

    def test_fraction_domain(self):
        with pytest.raises(ValueError):
            split_nodes(10, fraction=0.0, seed=0)
        with pytest.raises(ValueError):
            split_nodes(10, fraction=1.0, seed=0)
        # and n, an integer >= 1: n = 2.5 once raised numpy's AxisError
        for n, message in ((2.5, "n must be an integer, got 2.5"),
                           ("10", "n must be an integer, got '10'"),
                           (0, "n must be >= 1, got 0")):
            with pytest.raises(ValueError) as info:
                split_nodes(n, fraction=0.5, seed=0)
            assert str(info.value) == message
        for got, want in zip(split_nodes(np.int64(10), 0.5, 0), split_nodes(10, 0.5, 0)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n, fraction, side", [
        (200, 0.001, "no train"), (200, 0.999, "no test"), (1, 0.7, "no test"),
        (3, 0.1, "no train")])
    def test_empty_side_rejected(self, n, fraction, side):
        # the train size rounds to 0 or to n: one side of the split is empty
        with pytest.raises(ValueError, match=f"fraction={fraction} of n={n} nodes leaves {side}"):
            split_nodes(n, fraction=fraction, seed=0)


class TestTestLoglik:
    def test_all_half(self):
        g = Graph(n=4, edges=frozenset({(0, 1), (2, 3)}))
        labels = Partition.from_labels([1, 1, 2, 2])
        theta = np.full((2, 2), 0.5)
        # contributing pairs: 2*2 across + 1 within test = 5
        assert held_out(g, labels, theta, [0, 1]) == pytest.approx(5 * math.log(0.5))

    def test_certain_edge_clamped(self):
        g = Graph(n=2, edges=frozenset({(0, 1)}))
        labels = Partition.from_labels([1, 1])
        val = held_out(g, labels, np.array([[1.0]]), [0])
        assert abs(val) <= 1e-8

    def test_brute_force_four_nodes(self):
        # oracle: hand enumeration over the 5 contributing pairs
        g = Graph(n=4, edges=frozenset({(0, 2), (1, 3), (2, 3)}))
        labels = Partition.from_labels([1, 2, 1, 2])
        theta = np.array([[0.7, 0.3], [0.3, 0.2]])
        adj = {(0, 2), (1, 3), (2, 3)}
        want = 0.0
        pairs = [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        for i, j in pairs:
            p = theta[labels.labels[i] - 1, labels.labels[j] - 1]
            x = 1.0 if (min(i, j), max(i, j)) in adj else 0.0
            want += x * math.log(p) + (1 - x) * math.log(1 - p)
        assert held_out(g, labels, theta, [0, 1]) == pytest.approx(want, abs=1e-12)

    def test_train_internal_pairs_excluded(self):
        g = Graph(n=3, edges=frozenset({(0, 1)}))
        labels = Partition.from_labels([1, 1, 1])
        got = held_out(g, labels, np.array([[0.3]]), [0, 1])
        want = 2 * math.log(1 - 0.3)  # only pairs (0,2), (1,2)
        assert got == pytest.approx(want, abs=1e-12)

    def test_moves_away_from_frequencies_decrease(self):
        rng = np.random.default_rng(17)
        n = 20
        labels = np.array([1] * 10 + [2] * 10)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        probs = {True: 0.6, False: 0.3}
        edges = [
            (i, j) for i, j in pairs
            if rng.random() < probs[labels[i] == labels[j]]
        ]
        g = Graph(n=n, edges=frozenset(edges))
        part = Partition.from_labels(labels)
        train, test = split_nodes(n, fraction=0.5, seed=1)
        # empirical frequencies over the contributing pairs only
        counts = np.zeros((2, 2))
        totals = np.zeros((2, 2))
        eset = {(min(i, j), max(i, j)) for i, j in edges}
        for i, j in heldout_pairs(train, test):
            a, b = labels[i] - 1, labels[j] - 1
            totals[a, b] += 1
            totals[b, a] = totals[a, b] if a != b else totals[a, b]
            if (min(i, j), max(i, j)) in eset:
                counts[a, b] += 1
                counts[b, a] = counts[a, b] if a != b else counts[a, b]
        freq = counts / np.maximum(totals, 1)
        freq = (freq + freq.T) / 2
        base = held_out(g, part, freq, train)
        for delta in (0.05, 0.1, 0.2):
            worse = np.clip(freq + delta, 0, 1)
            assert held_out(g, part, worse, train) < base

    @pytest.mark.parametrize("case, bad", BAD_THETAS)
    def test_theta_checked(self, case, bad):
        # refused when the estimate is built, or at the wrong K by test_loglik
        g = Graph(n=3, edges=[(0, 1)])
        labels = Partition.from_labels([1, 2, 1])
        with pytest.raises(ValueError):
            held_out(g, labels, bad, [0])

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 6), st.floats(0.0, 0.6), st.data())
    def test_matches_pair_enumeration(self, n, K, density, data):
        # whole-graph counts less induced-train counts are the counts over
        # the pairs with a test endpoint, for test = the rest of the nodes
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
        g = Graph(n=n, edges=edges)
        labels = compact_partition(rng.integers(0, K, size=n))
        theta = random_theta(rng, labels.K)
        perm = rng.permutation(n)
        n_train = data.draw(st.integers(1, n))
        train, test = perm[:n_train].tolist(), perm[n_train:].tolist()
        x, m = brute_force_block_counts(n, edges, labels.labels, heldout_pairs(train, test))
        got = heldout_counts(g, labels, train)
        assert np.array_equal(got.edge_counts, x) and np.array_equal(got.pair_counts, m)
        want = loglik_reference(edges, labels, theta, train, test)
        assert held_out_loglik(estimate(theta), got) == pytest.approx(want, rel=1e-12, abs=0)

    def test_empty_and_single_node_test_sets(self):
        rng = np.random.default_rng(3)
        n = 12
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        g = Graph(n=n, edges=edges)
        labels = Partition.from_labels([1, 2, 3] * 4)
        theta = random_theta(rng, 3)
        assert held_out(g, labels, theta, np.arange(n)) == 0.0
        want = loglik_reference(edges, labels, theta, list(range(1, n)), [0])
        assert held_out(g, labels, theta, np.arange(1, n)) == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("K", [1, 2, 3, 10])
    def test_blocks_summed_in_triu_order(self, K):
        # the same terms in np.triu_indices(K) order give the same bits
        rng = np.random.default_rng(K)
        m = rng.integers(1, 10**6, size=(K, K))
        m = m + m.T
        x = rng.integers(0, m + 1)
        x = np.triu(x) + np.triu(x, 1).T
        theta = random_theta(rng, K)
        iu = np.triu_indices(K)
        assert np.array_equal(np.flatnonzero(~np.tri(K, k=-1, dtype=bool)),
                              np.ravel_multi_index(iu, (K, K)))
        probs = np.clip(theta[iu], 1e-9, 1 - 1e-9)
        want = float(np.sum(x[iu] * np.log(probs) + (m - x)[iu] * np.log1p(-probs)))
        got = held_out_loglik(estimate(theta), BlockStats(K=K, edge_counts=x, pair_counts=m))
        assert got.hex() == want.hex()

    def test_theta_domain_checked(self):
        g = Graph(n=2, edges=frozenset())
        labels = Partition.from_labels([1, 1])
        with pytest.raises(ValueError):
            held_out(g, labels, np.array([[1.2]]), [0])

    def test_estimate_not_checked_again(self, monkeypatch):
        # its theta was checked when the estimate was built
        import ebsbm.metrics as metrics

        est = ConnectivityEstimate(theta=np.full((2, 2), 0.25), method="MLE")

        def forbidden(*args, **kwargs):
            raise AssertionError("estimate checked twice")

        monkeypatch.setattr(metrics, "check_connectivity", forbidden)
        heldout = BlockStats(K=2, edge_counts=np.ones((2, 2), dtype=int),
                             pair_counts=np.full((2, 2), 4))
        assert held_out_loglik(est, heldout) == pytest.approx(
            3 * math.log(0.25) + 9 * math.log(0.75), rel=1e-15)

    @pytest.mark.parametrize("heldout_larger", [True, False])
    def test_k_mismatch_rejected(self, heldout_larger):
        k, k_est = (3, 2) if heldout_larger else (2, 3)
        heldout = BlockStats(K=k, edge_counts=np.zeros((k, k), dtype=int),
                             pair_counts=np.ones((k, k), dtype=int))
        with pytest.raises(ValueError) as info:
            held_out_loglik(estimate(np.full((k_est, k_est), 0.5)), heldout)
        assert str(info.value) == f"estimate must be {k}x{k} matrix, got shape ({k_est}, {k_est})"


def test_metrics_allocate_no_node_by_node_matrix():
    # one n x n float64 at n=3000 is 72 MB; the MSE and the held-out
    # counts and likelihood work on block counts
    n = 3000
    spec = affiliation_theta(K=10, lam=0.9, epsilon=0.1, rho=0.02)
    g, true_p = sample_sbm(spec, n=n, seed=0)
    rng = np.random.default_rng(1)
    est_p = compact_partition(rng.integers(0, 10, size=n))
    est_t = random_theta(rng, est_p.K)
    train, _ = split_nodes(n, fraction=0.7, seed=0)
    calls = [
        lambda: mse_sbm(est_t, est_p, spec.theta, true_p),
        lambda: held_out(g, true_p, spec.theta, train),
    ]
    tracemalloc.start()
    try:
        for call in calls:
            tracemalloc.reset_peak()
            call()
            peak = tracemalloc.get_traced_memory()[1]
            assert peak < 1_000_000, f"peak allocation {peak / 1e6:.1f} MB"
    finally:
        tracemalloc.stop()


def test_experiment_record_roundtrip():
    # a records.jsonl line reads back as the record's fields
    rec = ExperimentRecord(replicate=3, K_input=5, K_returned=4,
                           mse_mle=0.5, mse_eb=0.2, mse_vbem=0.3,
                           scores=[], seed=12)
    assert json.loads(json.dumps(rec.to_json_dict())) == {
        "replicate": 3, "K_input": 5, "K_returned": 4, "mse_mle": 0.5,
        "mse_eb": 0.2, "mse_vbem": 0.3, "scores": [], "seed": 12}


def test_experiment_record_validation():
    with pytest.raises(ValueError):
        ExperimentRecord(replicate=0, K_input=3, K_returned=4,
                         mse_mle=0.1, mse_eb=0.1, mse_vbem=0.1, scores=[], seed=0)
    with pytest.raises(ValueError):
        ExperimentRecord(replicate=0, K_input=3, K_returned=3,
                         mse_mle=-0.1, mse_eb=0.1, mse_vbem=0.1, scores=[], seed=0)
