import dataclasses
import gc
import glob
import hashlib
import os
import tracemalloc
import types
import warnings
import weakref

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import linalg, sparse
from scipy.special import entr, xlogy

from ebsbm import community
from ebsbm.community import _kmeans_once, detect_range, spectral_partition, variational_em
from ebsbm.graph import Graph, block_stats, compact_partition
from ebsbm.io import bundled_data_path, ingest_network
from ebsbm.samplers import affiliation_theta, powerlaw_graphon, sample_graphon, sample_sbm
from helpers import hungarian_agreement, random_pairs, two_cliques_graph


def cliques_graph(size=10):
    n, edges, labels = two_cliques_graph(size)
    return Graph(n=n, edges=frozenset(edges)), labels


class TestSpectral:
    def test_two_cliques_exact(self):
        g, labels = cliques_graph(10)
        res = spectral_partition(g, K=2, seed=0)
        assert res.partition.K == 2
        # oracle: connected components are the cliques themselves
        assert hungarian_agreement(res.partition.labels, labels) == 1.0

    def test_k1(self):
        g, _ = cliques_graph(3)
        res = spectral_partition(g, K=1, seed=0)
        assert res.partition.K == 1
        assert np.all(res.partition.labels == 1)

    def test_k_exceeds_n(self):
        g = Graph(n=3, edges=frozenset({(0, 1)}))
        with pytest.raises(ValueError):
            spectral_partition(g, K=4, seed=0)
        with pytest.raises(ValueError):
            spectral_partition(g, K=0, seed=0)

    def test_deterministic(self):
        spec = affiliation_theta(K=4, lam=0.8, epsilon=0.1, rho=1.0)
        g, _ = sample_sbm(spec, n=80, seed=3)
        a = spectral_partition(g, K=4, seed=11)
        b = spectral_partition(g, K=4, seed=11)
        assert a.partition == b.partition

    def test_handles_isolated_nodes(self):
        g = Graph(n=6, edges=frozenset({(0, 1), (1, 2), (0, 2)}))  # 3,4,5 isolated
        res = spectral_partition(g, K=2, seed=0)
        assert res.partition.n == 6

    def test_model1_recovery(self):
        # oracle: label matching via Hungarian assignment, 10 seeds
        spec = affiliation_theta(K=10, lam=0.9, epsilon=0.1, rho=1.0)
        scores = []
        for seed in range(10):
            g, truth = sample_sbm(spec, n=200, seed=seed)
            res = spectral_partition(g, K=10, seed=seed)
            scores.append(hungarian_agreement(res.partition.labels, truth.labels))
        assert np.mean(scores) >= 0.95

    def test_relabel_invariance_up_to_permutation(self):
        g, labels = cliques_graph(8)
        perm = np.random.default_rng(0).permutation(g.n)
        remapped_edges = frozenset(
            (min(int(perm[i]), int(perm[j])), max(int(perm[i]), int(perm[j])))
            for i, j in g.edges)
        g2 = Graph(n=g.n, edges=remapped_edges)
        r1 = spectral_partition(g, K=2, seed=5)
        r2 = spectral_partition(g2, K=2, seed=5)
        back = r2.partition.labels[perm]
        assert hungarian_agreement(r1.partition.labels, back) == 1.0

    def test_matrix_free_eigvecs_match_dense_reference(self):
        # reference: the regularized normalized adjacency written out as a
        # dense matrix and eigensolved with eigh; the implicit-shift Lanczos
        # solve must span the same top-K subspace
        spec = affiliation_theta(K=5, lam=0.8, epsilon=0.1, rho=0.5)
        g, _ = sample_sbm(spec, n=120, seed=4)
        n = g.n
        a = np.zeros((n, n))
        a[g.edges[:, 0], g.edges[:, 1]] = a[g.edges[:, 1], g.edges[:, 0]] = 1.0
        a += 2.0 * g.edge_count / n / n
        dinv = 1.0 / np.sqrt(a.sum(axis=1))
        _, ref = linalg.eigh(dinv[:, None] * a * dinv[None, :])
        for K in range(2, 9):
            got = community._top_eigvecs(g, K)
            cosines = linalg.svdvals(ref[:, n - K:].T @ got)
            assert got.shape == (n, K)
            assert cosines.min() >= 1 - 1e-9

    @pytest.mark.parametrize("K", [5, 6])
    def test_k_at_node_count(self, K):
        # ARPACK needs K < n; K = n takes the dense path
        g = Graph(n=6, edges=[(0, 1), (1, 2), (0, 2), (3, 4)])
        res = spectral_partition(g, K=K, seed=0)
        assert res.partition.n == 6 and 1 <= res.partition.K <= K


def _sbm_400(seed):
    spec = affiliation_theta(K=10, lam=0.9, epsilon=0.1, rho=0.2)
    return sample_sbm(spec, n=400, seed=seed)[0]


def _graphon_400(seed):
    return sample_graphon(powerlaw_graphon(0.2, 2.0), 400, seed)[0]


class TestSharedBasis:
    # one top-15 eigensolve stands in for the K = 2..15 solves it contains:
    # the spectral start must not see the difference
    @pytest.mark.parametrize("make, graph_seed", [
        (_sbm_400, 2000), (_sbm_400, 2001), (_sbm_400, 2002), (_graphon_400, 200)])
    def test_shared_eigenbasis_matches_standalone(self, make, graph_seed):
        g = make(graph_seed)
        basis = community._top_eigvecs(g, 15)
        for K in range(2, 16):
            shared = spectral_partition(g, K, seed=K, basis=basis)
            alone = spectral_partition(g, K, seed=K)
            assert shared.partition == alone.partition, K
            assert (shared.iterations, shared.converged) == (alone.iterations, alone.converged)

    def test_bad_inputs(self):
        g, _ = cliques_graph(4)
        basis = community._top_eigvecs(g, 4)
        with pytest.raises(ValueError, match="K=9 exceeds node count 8"):
            spectral_partition(g, K=9, seed=0, basis=basis)
        for bad in (basis[:-1], basis[:, :2], basis[:, 0], np.vstack((basis, basis))):
            with pytest.raises(ValueError, match="basis of shape"):
                spectral_partition(g, K=3, seed=0, basis=bad)


@pytest.fixture
def openblas():
    # the (get, set) thread-count calls of each bundled OpenBLAS; every
    # count the test sets is put back after it
    calls = community._openblas_threads()
    if not calls:
        pytest.skip("neither numpy nor scipy bundles its OpenBLAS here")
    before = _counts(calls)
    yield calls
    _set_threads(calls, before)


def _counts(calls):
    return [get() for get, _ in calls]


def _set_threads(calls, counts):
    for (_, set_), count in zip(calls, counts):
        set_(count)


class TestEigensolveBlasThreads:
    # ARPACK, k-means and the EM run with numpy's and scipy's OpenBLAS at
    # one thread, and the caller's thread counts come back after the call,
    # also when it raises
    def test_one_thread_and_restored(self, monkeypatch, openblas):
        g = _sbm_400(2000)
        eigsh, seen = community._sla.eigsh, []

        def recorded(*args, **kwargs):
            seen.append(_counts(openblas))
            return eigsh(*args, **kwargs)

        def failing(*args, **kwargs):
            seen.append(_counts(openblas))
            raise RuntimeError("no convergence")

        two, one = [2] * len(openblas), [1] * len(openblas)
        _set_threads(openblas, two)
        monkeypatch.setattr(community._sla, "eigsh", recorded)
        assert community._top_eigvecs(g, 5).shape == (400, 5)
        assert _counts(openblas) == two
        monkeypatch.setattr(community._sla, "eigsh", failing)
        with pytest.raises(RuntimeError, match="no convergence"):
            community._top_eigvecs(g, 5)
        assert _counts(openblas) == two
        assert seen == [one, one]

    def test_finds_numpy_and_scipy_builds(self, openblas):
        # two libraries, each with its own count: numpy's ILP64 build
        # (calls suffixed 64_) and scipy's, where both wheels bundle one
        bundled = [glob.glob(os.path.join(os.path.dirname(os.path.abspath(m.__file__)) + ".libs",
                                          "libscipy_openblas*")) for m in (np, scipy)]
        if not all(bundled):
            pytest.skip("numpy and scipy do not both bundle their OpenBLAS here")
        assert len(openblas) == 2
        _set_threads(openblas, [1, 2])
        assert _counts(openblas) == [1, 2]
        with community._one_blas_thread():
            assert _counts(openblas) == [1, 1]
        assert _counts(openblas) == [1, 2]

    @pytest.mark.parametrize("layer", ["_nearest_centres", "_e_step"])
    def test_kmeans_and_em_on_one_thread(self, monkeypatch, openblas, layer):
        # every k-means distance pass and every EM block update runs at one
        # thread; the caller's counts come back, also after a failure
        g = _sbm_400(2000)
        real, seen = getattr(community, layer), []

        def recorded(*args):
            seen.append(tuple(_counts(openblas)))
            return real(*args)

        def failing(*args):
            raise RuntimeError("spoiled")

        two = [2] * len(openblas)
        _set_threads(openblas, two)
        monkeypatch.setattr(community, layer, recorded)
        detect_range(g, (5,), seed=0, max_iter=5)
        assert seen and set(seen) == {(1,) * len(openblas)}
        assert _counts(openblas) == two
        monkeypatch.setattr(community, layer, failing)
        with pytest.raises(RuntimeError, match="spoiled"):
            detect_range(g, (5,), seed=0, max_iter=5)
        assert _counts(openblas) == two

    def test_kmeans_independent_of_the_callers_threads(self, openblas):
        # 500 centres (n = 1000, K = 50, ten restarts), where OpenBLAS's
        # threaded GEMM rounds otherwise than its one-thread GEMM. Points
        # on a lattice of step 0.1 tie in exact arithmetic between many
        # centres, so the rounding picks their labels: with k-means at the
        # caller's count, two threads moved 73 of the restarts' labels here
        X = np.random.default_rng(4).integers(0, 3, (1000, 50)) * 0.1
        got = []
        for count in (1, 2):
            _set_threads(openblas, [count] * len(openblas))
            got.append(_kmeans_once(X, 50, _streams(50)))
            assert _counts(openblas) == [count] * len(openblas)
        (labels, inertia, _, iters, _), (labels2, inertia2, _, iters2, _) = got
        assert np.array_equal(labels, labels2) and np.array_equal(iters, iters2)
        assert inertia.tobytes() == inertia2.tobytes()


def _reference_kmeans_pp(X, K, rng):
    # one restart's k-means++ seeding with Generator.choice; the batched
    # seeding must draw exactly these centres
    n = X.shape[0]
    centers = np.empty((K, X.shape[1]))
    first = int(rng.integers(n))
    centers[0] = X[first]
    d2 = np.sum((X - centers[0]) ** 2, axis=1)
    for k in range(1, K):
        total = d2.sum()
        if total <= 1e-12:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[k] = X[idx]
        d2 = np.minimum(d2, np.sum((X - centers[k]) ** 2, axis=1))
    return centers


def _reference_kmeans(X, K, rng, max_iter=300):
    # one restart as a scalar Lloyd loop: broadcast n x K x d distances,
    # centre sums with np.add.at; the batched loop must match it exactly
    centers = _reference_kmeans_pp(X, K, rng)
    n = X.shape[0]
    labels = np.full(n, -1, dtype=np.int64)
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        dist = np.sum((X[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(dist, axis=1)
        own = dist[np.arange(n), new_labels]
        counts = np.bincount(new_labels, minlength=K)
        for k in np.flatnonzero(counts == 0):
            far = int(np.argmax(np.where(counts[new_labels] > 1, own, -1.0)))
            counts[new_labels[far]] -= 1
            counts[k] = 1
            new_labels[far] = k
        if np.array_equal(new_labels, labels):
            converged = True
            break
        labels = new_labels
        centers = np.zeros_like(centers)
        np.add.at(centers, labels, X)
        centers /= counts[:, None]
    inertia = float(np.sum((X - centers[labels]) ** 2))
    return labels, inertia, it, converged


def _duplicated_points(distinct=3, copies=5):
    # with five copies of three points, K=5 makes k-means++ repeat a
    # centre, so clusters start empty and must be refilled; the offset
    # makes the inertia show a last-digit change in any centre
    points = 10.0 + 1e-3 * np.random.default_rng(0).standard_normal((distinct, 4))
    return np.repeat(points, copies, axis=0)


def _spectral_embedding(K, seed):
    spec = affiliation_theta(K=6, lam=0.8, epsilon=0.1, rho=0.5)
    g, _ = sample_sbm(spec, n=150, seed=seed)
    vecs = community._top_eigvecs(g, K)
    return vecs / np.maximum(np.linalg.norm(vecs, axis=1), 1e-12)[:, None]


def _streams(seed, count=10):
    return [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(count)]


# sha256 of the int64 labels, with the winner's Lloyd iterations, recorded
# from the one-restart-at-a-time k-means with broadcast distances: a near
# tie that the batched distances resolve otherwise fails here
SPECTRAL_PINS = [
    (None, 2, 0, "b0ec647c087518952015171d3032a5af45d30f74cbd87fd5f865db669b601037", 4),
    (None, 3, 0, "ffee69de37b8f6ed4d9ce9c8549f04fb76f8b613f7acf28d1e6a4d268a9b0c41", 8),
    (None, 4, 0, "079af43f411d16354e092674b4a02007d6bb757c1c7b897bd23530c4add01efd", 8),
    (None, 5, 0, "819f0f3a367c1b7c1db72119cf61eee50a66fa36835fd72a067afe80628f6f96", 16),
    (None, 6, 0, "f08c4c5e07a13627520475b8a7a3b7b15e23bca34a1f596076572af72f45ac91", 11),
    (None, 7, 0, "3714e22a8ef0f778e6e7317d6014ff726f37c8c2e4bcae52364472dd92dd3393", 7),
    (None, 8, 0, "d128f630a4b43317a02881f882d95a6afd0ea63a4c43c02b123c78d2246db282", 7),
    (None, 9, 0, "0ffdd4e28eaf308b05ff22d8d65d8952152cc4f8c0c7624e98a03d053bead64e", 2),
    (None, 10, 0, "9f5290005952c6be3bdbd49dbcfdbb29c409854b0196867cf7927d98687efc74", 2),
    ((400, 0.2, 2000), 10, 2000,
     "86c89cdd7f5b157b036a9ab5b7db258ea755b47fbe68ff4d8252ec33dfdfcb1f", 7),
    ((400, 0.2, 2000), 15, 7, "fdad3931eb2faa1d8ee028e42b5620275e4c0973d4735ebe1205e8f771e1ffb6", 14),
    ((400, 0.2, 2000), 25, 3, "c3d99e480e2eab864d633d8191753843e0a434d7285afec68f61876c53eac30e", 8),
    ((400, 0.2, 2000), 40, 4, "c370f437cbe17b8fefd5516270324d18bc71ee5e73ee2aca3d8b4f7d1d2bcdbc", 7),
    ((1000, 0.05, 5), 10, 1, "7ffab4a80d270f4e4f857e2f7dbc4bf459d089ca134f8308b148026bd5384c60", 12),
]


@pytest.mark.parametrize("sbm, K, seed, digest, iters", SPECTRAL_PINS)
def test_spectral_partition_pinned(sbm, K, seed, digest, iters):
    # sbm is (n, rho, graph seed) of an affiliation SBM; None is the bundled network
    if sbm is None:
        g = ingest_network(bundled_data_path("synthetic_edges.txt"))[0]
    else:
        n, rho, graph_seed = sbm
        spec = affiliation_theta(K=10, lam=0.9, epsilon=0.1, rho=rho)
        g, _ = sample_sbm(spec, n=n, seed=graph_seed)
    res = spectral_partition(g, K, seed=seed)
    assert hashlib.sha256(res.partition.labels.astype("<i8").tobytes()).hexdigest() == digest
    assert res.iterations == iters and res.converged


KMEANS_FIXTURES = [
    (_duplicated_points(), 5),
    (_duplicated_points(4, 3), 6),
    (np.random.default_rng(5).standard_normal((200, 3)), 7),
    *[(_spectral_embedding(K, seed=K), K) for K in range(2, 13)],
]


class TestKmeans:
    @pytest.mark.parametrize("X, K", [
        *KMEANS_FIXTURES,
        (_duplicated_points(30, 1), 5),
        (np.random.default_rng(6).standard_normal((300, 2)), 8),
        (np.full((6, 3), 0.25), 4),
    ])
    def test_batched_seeding_matches_choice(self, X, K):
        # the duplicated and coincident points run out of spread, so later
        # centres come from the uniform fallback; no 0/0 may warn there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            centers = community._kmeans_pp(X, K, _streams(K), np.sum(X * X, axis=1),
                                           np.ascontiguousarray(X.T))
        assert centers.shape == (10, K, X.shape[1])
        for r, rng in enumerate(_streams(K)):
            assert np.array_equal(centers[r], _reference_kmeans_pp(X, K, rng)), f"restart {r}"

    @pytest.mark.parametrize("distinct, copies", [(3, 5), (30, 1)])
    def test_centres_are_exact_cluster_means(self, distinct, copies):
        X = _duplicated_points(distinct, copies)
        labels, inertia, _, _, _ = _kmeans_once(X, 5, [np.random.default_rng(1)])
        assert np.all(np.bincount(labels[0], minlength=5) > 0)
        means = np.array([X[labels[0] == k].mean(axis=0) for k in range(5)])
        assert inertia[0] == float(np.sum((X - means[labels[0]]) ** 2))

    @pytest.mark.parametrize("X, K", KMEANS_FIXTURES)
    def test_batched_restarts_match_scalar_loop(self, X, K):
        labels, inertia, total, iters, converged = _kmeans_once(X, K, _streams(K))
        want = [_reference_kmeans(X, K, rng) for rng in _streams(K)]
        for r, (ref_labels, ref_inertia, ref_iters, ref_converged) in enumerate(want):
            assert np.array_equal(labels[r], ref_labels), f"restart {r}"
            assert inertia[r] == ref_inertia
            assert iters[r] == ref_iters and converged[r] == ref_converged
        assert type(total) is int and total == sum(w[2] for w in want)

    def test_restart_stopped_by_the_cap(self):
        X = np.random.default_rng(6).standard_normal((300, 2))
        labels, inertia, total, iters, converged = _kmeans_once(X, 8, _streams(3, 4), max_iter=2)
        want = [_reference_kmeans(X, 8, rng, max_iter=2) for rng in _streams(3, 4)]
        assert not converged.any() and total == 8 and np.all(iters == 2)
        for r, (ref_labels, ref_inertia, _, ref_converged) in enumerate(want):
            assert np.array_equal(labels[r], ref_labels) and inertia[r] == ref_inertia
            assert not ref_converged

    @pytest.mark.parametrize("X, K", KMEANS_FIXTURES)
    @pytest.mark.parametrize("chunk", ["one row", "seven rows"])
    def test_chunked_assignment_matches_one_chunk(self, monkeypatch, X, K, chunk):
        # every fixture fits one chunk by default. _CHUNK = 1 takes one
        # row of distances (and one restart's k-means++ differences) at a
        # time; 70 K takes seven rows while all ten restarts run. The
        # duplicated points also take the empty-cluster repair each time.
        want = _kmeans_once(X, K, _streams(K))
        monkeypatch.setattr(community, "_CHUNK", 1 if chunk == "one row" else 70 * K)
        got = _kmeans_once(X, K, _streams(K))
        for w, g in zip(want, got):
            assert np.array_equal(w, g) and np.asarray(w).dtype == np.asarray(g).dtype

    def test_memory_is_linear_in_n(self):
        # n=20000 points in d=10 with K=10: the (n, 100) Lloyd distances,
        # or the ten restarts' k-means++ distances of one new centre as a
        # cube of differences, are 16 MB each when whole. Both come from
        # GEMMs into chunks of 2^16 entries, so a dozen (R, n) arrays of
        # 1.6 MB remain, the seeding's d2 and X's columns among them:
        # about 12 MB measured
        X = np.random.default_rng(0).standard_normal((20_000, 10))
        X /= np.linalg.norm(X, axis=1)[:, None]
        tracemalloc.start()
        try:
            _kmeans_once(X, 10, _streams(10), max_iter=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 14_000_000, f"peak allocation {peak / 1e6:.1f} MB"


class TestAdjacency:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 30), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    @example(1, 0, 0.5)    # one node
    @example(6, 0, 0.0)    # no edges
    @example(12, 3, 0.05)  # isolated nodes
    def test_csr_matches_coo_build(self, n, seed, density):
        # oracle: both orientations of every edge through scipy's COO path
        g = Graph(n=n, edges=random_pairs(n, seed, density))
        i, j = g.edges.T
        want = sparse.csr_array((np.ones(2 * g.edge_count),
                                 (np.concatenate((i, j)), np.concatenate((j, i)))), shape=(n, n))
        got = community._csr_adjacency(g)
        assert got.shape == (n, n) and got.data.dtype == np.float64
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    @pytest.mark.parametrize("size", [1, 7, 64])
    def test_row_blocks_are_views_of_the_slices(self, size):
        g = Graph(n=150, edges=random_pairs(150, 4, 0.01))
        X = community._csr_adjacency(g)
        assert np.any(np.diff(X.indptr) == 0)  # empty rows too
        blocks = community._row_blocks(X, size)
        assert [rows for rows, _ in blocks] == [slice(s, s + size) for s in range(0, 150, size)]
        R = np.random.default_rng(0).dirichlet(np.ones(4), size=150)
        for rows, Xb in blocks:
            want = X[rows]
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(Xb, name), getattr(want, name)), name
            assert Xb.shape == want.shape and np.array_equal(Xb @ R, want @ R)
            if Xb.nnz:
                assert np.shares_memory(Xb.data, X.data)
                assert np.shares_memory(Xb.indices, X.indices)

    def test_csr_memory(self):
        # 72k edges: the result's 144k int32 indices and float64 entries
        # are 1.7 MB, and the upper triangle and its transpose as much
        # again (3.5 MB measured). Built through COO, the int64 row and
        # column copies and their sort peaked near 5.8 MB
        g, _ = sample_sbm(affiliation_theta(10, 0.9, 0.1, 0.05), n=4000, seed=1)
        tracemalloc.start()
        try:
            community._csr_adjacency(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4_000_000, f"peak allocation {peak / 1e6:.1f} MB"


def _random_init(n, K, seed):
    # a soft start: (n, K) rows drawn from Dirichlet(1, ..., 1)
    return np.random.default_rng(seed).dirichlet(np.ones(K), size=n)


def _block_width(blocks):
    # the number of nodes per block of an E-step's row blocks
    rows = blocks[0][0]
    return rows.stop - rows.start


def _one_node_blocks(blocks):
    # the same rows as one-node blocks, as the redo of a sweep uses them
    return [(slice(rows.start + i, rows.start + i + 1), Xb[i:i + 1])
            for rows, Xb in blocks for i in range(Xb.shape[0])]


def _sha(data):
    return hashlib.sha256(data).hexdigest()


# sha256 of the objective trace (float.hex, comma-joined) and theta_vb
# (little-endian float64), recorded with 128-node E-step blocks, every per-K
# sum taken by np.add.reduceat and the entropy from the E-step: (graph, K,
# init, init seed, sweeps, digests). The first case redoes one sweep node by
# node.
VEM_PINS = [
    ((3, 0.8, 1.0, 40, 13), 3, "random", 13, 20,
     "8c52867dede1b20cb5d98b6076de18542a12270c6a4920c8dfd2bbed9394f25d",
     "44cc623faef78137648d3eddf0670a31903b11811f239ff24d3185242537605b"),
    ((5, 0.8, 0.5, 150, 4), 6, "spectral", 4, 39,
     "1a43f42e8816246bb1ba9383cc5863905cfc0145981394f2845330be3ead8ce6",
     "1033e85335229efd20af201c5b6e1952cb7e14070b286075d24f689163b19a77"),
    ((10, 0.9, 0.2, 400, 2000), 12, "spectral", 2000, 23,
     "2877a01eb5d76d80f39dcfe3c93825d3f8fa6d91be4d08f06002232923268335",
     "ec6a0f12ad6f4acfd7a415d8504ab7d9b62128405b6de2db5fe79a48632944df"),
    (None, 10, "spectral", 0, 2,
     "b81206f5de7fd07c9631db9b35e8979e62120df7ac6aaff0f9844b7e8c9b20fc",
     "a60783a7841f33dd710aa0e8d3238b2a805ad8acc65505586cf55e3d171372c3"),
]


@pytest.mark.parametrize("sbm, K, init, seed, sweeps, trace_sha, theta_sha", VEM_PINS,
                         ids=["n40-K3-random", "n150-K6-spectral", "n400-K12-spectral",
                              "bundled-K10-spectral"])
def test_variational_em_pinned(sbm, K, init, seed, sweeps, trace_sha, theta_sha):
    # sbm is (K*, lambda, rho, n, graph seed) of an affiliation SBM with
    # epsilon 0.1; None is the bundled network
    if sbm is None:
        g = ingest_network(bundled_data_path("synthetic_edges.txt"))[0]
    else:
        k, lam, rho, n, graph_seed = sbm
        g, _ = sample_sbm(affiliation_theta(K=k, lam=lam, epsilon=0.1, rho=rho), n=n,
                          seed=graph_seed)
    start = _random_init(g.n, K, seed) if init == "random" else spectral_partition(g, K, seed)
    trace = []
    det, theta_vb = variational_em(g, K, start, trace=trace)
    assert det.iterations == sweeps == len(trace)
    assert _sha(",".join(v.hex() for v in trace).encode()) == trace_sha
    assert _sha(theta_vb.astype("<f8").tobytes()) == theta_sha


class TestVariationalEm:
    def test_two_cliques_theta(self):
        g, labels = cliques_graph(10)
        init = spectral_partition(g, K=2, seed=0)
        res, theta_vb = variational_em(g, K=2, init=init)
        assert np.all(np.diag(theta_vb) > 0.9)
        off = theta_vb[~np.eye(2, dtype=bool)]
        assert np.all(off < 0.1)
        # oracle: exact block counts given the recovered partition
        s = block_stats(g, res.partition)
        want = (s.edge_counts[0, 0] + 0.5) / (s.pair_counts[0, 0] + 1.0)
        assert theta_vb[0, 0] == pytest.approx(want, abs=0.05)

    def test_k1_closed_form(self):
        g = Graph(n=6, edges=frozenset({(0, 1), (2, 3), (4, 5), (1, 2)}))
        init = spectral_partition(g, K=1, seed=0)
        _, theta_vb = variational_em(g, K=1, init=init)
        want = (4 + 0.5) / (15 + 1.0)
        assert theta_vb[0, 0] == pytest.approx(want, abs=1e-9)

    def test_objective_monotone(self):
        spec = affiliation_theta(K=3, lam=0.7, epsilon=0.1, rho=1.0)
        g, _ = sample_sbm(spec, n=60, seed=2)
        init = spectral_partition(g, K=3, seed=2)
        trace = []
        variational_em(g, K=3, init=init, trace=trace)
        assert len(trace) >= 1
        diffs = np.diff(trace)
        assert np.all(diffs >= -1e-7 * (1 + np.abs(np.asarray(trace[:-1]))))

    def test_batched_sweep_below_previous_is_redone(self, monkeypatch):
        # pinned: on this graph and random init the last batched sweep ends
        # (by rounding) below the sweep before it, so it is redone node by node
        spec = affiliation_theta(K=3, lam=0.8, epsilon=0.1, rho=1.0)
        g, _ = sample_sbm(spec, n=40, seed=13)
        blocks, values = [], []
        e_step, elbo = community._e_step, community._elbo

        def step(*args):
            blocks.append(_block_width(args[1]))
            e_step(*args)

        def objective(*args):
            out = elbo(*args)
            values.append(out[0][0])  # the one K's objective
            return out

        monkeypatch.setattr(community, "_e_step", step)
        monkeypatch.setattr(community, "_elbo", objective)
        trace = []
        res, _ = variational_em(g, K=3, init=_random_init(g.n, 3, 13), trace=trace)
        # sweep j's batched E-step is call j; its redo is call j + 1
        j = blocks.index(1) - 1
        assert blocks.count(1) == 1 and j >= 1
        assert values[j] < trace[j - 1]
        assert res.converged
        assert np.all(np.diff(trace) >= -1e-7 * (1 + np.abs(np.asarray(trace[:-1]))))

    def test_redo_restores_the_sweep_start(self, monkeypatch):
        # spoil every batched sweep after the first: each is undone and
        # redone node by node, which must give exactly the trace of a run
        # whose later sweeps are node by node in the first place, each with
        # its entropy taken once from its result, as a redo takes it
        spec = affiliation_theta(K=3, lam=0.7, epsilon=0.1, rho=1.0)
        g, _ = sample_sbm(spec, n=90, seed=2)
        init = _random_init(g.n, 3, 2)
        e_step = community._e_step

        def run(spoil):
            batched = []

            def step(R, blocks, colsum, elog, lay, entropy=None):
                if _block_width(blocks) == 1:  # a redo
                    return e_step(R, blocks, colsum, elog, lay)
                batched.append(_block_width(blocks))
                if len(batched) == 1:
                    return e_step(R, blocks, colsum, elog, lay, entropy)
                if spoil:
                    e_step(R, blocks, colsum, elog, lay, entropy)
                    R[:] = np.eye(3)[np.argmin(R, axis=1)]
                    entropy[:] = 0.0
                else:
                    e_step(R, _one_node_blocks(blocks), colsum, elog, lay)
                    entropy[:] = entr(R).sum(axis=0)

            monkeypatch.setattr(community, "_e_step", step)
            trace = []
            res, _ = variational_em(g, K=3, init=init, trace=trace)
            return res, trace

        spoiled, trace = run(spoil=True)
        _, want = run(spoil=False)
        assert spoiled.converged and spoiled.iterations >= 3
        assert trace == want
        assert np.all(np.diff(trace) >= 0)

    def test_redo_makes_one_node_block_at_a_time(self, monkeypatch):
        # a spoiled sweep on a 20,000-node path is redone node by node. Its
        # one-node blocks are a CSR array each, about 600 bytes: held as a
        # list they took the fit's traced peak to 17.5 MB. Made one at a
        # time, the fit peaks at 2.8 MB: R, its sweep start, the adjacency
        # and the _BLOCK-node blocks
        n = 20_000
        i = np.arange(n - 1)
        g = Graph(n=n, edges=np.column_stack((i, i + 1)))
        e_step, widths, block = community._e_step, [], community._BLOCK

        def step(R, blocks, colsum, *args):
            widths.append(_block_width(blocks))
            e_step(R, blocks, colsum, *args)
            if widths == [block, block]:  # one-hot rows: entropy 0
                R[:] = np.eye(2)[np.argmin(R, axis=1)]
                args[-1][:] = 0.0

        monkeypatch.setattr(community, "_e_step", step)
        tracemalloc.start()
        try:
            variational_em(g, K=2, init=_random_init(n, 2, 0), max_iter=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert widths == [block, block, 1]
        assert peak <= 5_000_000, f"peak allocation {peak / 1e6:.1f} MB"

    def test_compacts_emptied_clusters(self):
        # K much larger than the structure supports: some clusters die
        g, _ = cliques_graph(6)
        init = spectral_partition(g, K=6, seed=1)
        res, theta_vb = variational_em(g, K=6, init=init)
        assert res.partition.K <= 6
        assert theta_vb.shape == (res.partition.K, res.partition.K)

    def test_converged_flag_and_iterations(self):
        g, _ = cliques_graph(5)
        init = spectral_partition(g, K=2, seed=0)
        res, _ = variational_em(g, K=2, init=init, max_iter=50, tol=1e-6)
        assert res.converged
        assert 1 <= res.iterations <= 50
        # a run stopped at its cap says so (at the default cap of 100 sweeps
        # this one converges after 77)
        g, _ = sample_sbm(affiliation_theta(K=1, lam=0.05, epsilon=0.0, rho=1.0), n=300,
                          seed=0)
        det, _ = detect_range(g, (4,), seed=0, max_iter=3)[0]
        assert det.converged is False
        assert det.iterations == 3


def _reference_counts(X, R):
    # expected edge and pair counts of one K's (n, K) responsibilities alone
    colsum = R.sum(axis=0)
    C = R.T @ (X @ R)
    Q = R.T @ R
    pairs = np.outer(colsum, colsum) - Q
    edges = C.copy()
    np.fill_diagonal(pairs, (colsum**2 - np.diag(Q)) / 2.0)
    np.fill_diagonal(edges, np.diag(C) / 2.0)
    return edges, pairs, colsum


def _reference_vem(g, K, init, max_iter=100, tol=1e-3, trace=None):
    # the per-K sweep loop that the lockstep engine replaced, one K alone,
    # in the engine's arithmetic: every sum over K entries is np.add.reduceat
    # of its one segment, and a sweep's entropy is summed per column from
    # each block's log P, a redo's once from its result. The engine must
    # give every K exactly these bytes
    from scipy.special import entr, gammaln, psi

    tau, a0, b0 = 0.5, 0.5, 0.5
    X = community._csr_adjacency(g)
    blocks, nodes = community._row_blocks(X, community._BLOCK), community._row_blocks(X, 1)
    iu = np.triu_indices(K)

    def total(x, axis=0):
        return np.add.reduceat(x, [0], axis=axis)

    def counts_of(R):
        return _reference_counts(X, R)

    def e_step(R, blocks, colsum, elog_pi, elog_t, elog_1mt, entropy=None):
        for b, Xb in blocks:
            S = Xb @ R
            T = np.maximum(colsum - R[b] - S, 0.0)
            L = elog_pi + S @ elog_t + T @ elog_1mt
            L -= L.max(axis=1, keepdims=True)
            P = np.exp(L)
            sums = total(P, axis=1)
            P /= sums
            if entropy is not None:
                entropy -= (P * (L - np.log(sums))).sum(axis=0)
            colsum += (P - R[b]).sum(axis=0)
            R[b] = P

    def objective(R, elog, kl, entropy):
        counts = counts_of(R)
        edges, pairs, colsum = counts
        e_loglik = total(edges[iu] * elog[1][iu] + (pairs - edges)[iu] * elog[2][iu])
        value = e_loglik + total(colsum * elog[0]) + total(entropy) - kl[0] - kl[1]
        return float(value[0]), counts

    if isinstance(init, np.ndarray):
        R = init.copy()
    else:
        R = np.zeros((g.n, K))
        R[np.arange(g.n), init.partition.labels - 1] = 1.0
    prev, converged, counts, sweeps = -np.inf, False, counts_of(R), 0
    for sweeps in range(1, max_iter + 1):
        edges, pairs, colsum = counts
        gamma, zeta = tau + colsum, a0 + edges
        xi = b0 + np.maximum(pairs - edges, 0.0)
        psi_sum = psi(zeta + xi)
        elog = (psi(gamma) - psi(total(gamma)), psi(zeta) - psi_sum, psi(xi) - psi_sum)
        kl_pi = (gammaln(total(gamma)) - total(gammaln(gamma)) - gammaln(K * tau)
                 + K * gammaln(tau) + total((gamma - tau) * elog[0]))
        z, x = zeta[iu], xi[iu]
        kl_theta = total(
            gammaln(z + x) - gammaln(z) - gammaln(x) - gammaln(a0 + b0) + gammaln(a0)
            + gammaln(b0) + (z - a0) * psi(z) + (x - b0) * psi(x)
            - (z + x - a0 - b0) * psi(z + x))
        start = R.copy(), colsum.copy()
        entropy = np.zeros(K)
        e_step(R, blocks, colsum, *elog, entropy)
        value, counts = objective(R, elog, (kl_pi, kl_theta), entropy)
        if value < prev:
            R, colsum = start
            e_step(R, nodes, colsum, *elog)
            value, counts = objective(R, elog, (kl_pi, kl_theta), entr(R).sum(axis=0))
        if trace is not None:
            trace.append(value)
        if value - prev < tol and np.isfinite(prev):
            converged = True
            break
        prev = value
    labels0 = np.argmax(R, axis=1)
    Rc = R[:, np.unique(labels0)]
    Rc /= Rc.sum(axis=1, keepdims=True)
    edges, pairs, _ = counts_of(Rc)
    theta_vb = (a0 + edges) / (a0 + b0 + pairs)
    return labels0, R, (theta_vb + theta_vb.T) / 2.0, sweeps, converged


def _assert_fits_match_reference(g, ks, inits, **kwargs):
    # every K of one _fit_range call against the reference fit of that K,
    # each K's final responsibilities taken from the engine's _finish
    traces = [[] for _ in ks]
    final, finish = {}, community._finish

    def recorded(R, *args):
        out = finish(R, *args)
        final[id(out[0])] = R.copy()
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(community, "_finish", recorded)
        fits = community._fit_range(community._csr_adjacency(g), list(ks), inits,
                                    kwargs.get("max_iter", 100), kwargs.get("tol", 1e-3),
                                    traces)
    assert len(fits) == len(ks)
    for K, init, (det, theta_vb), trace in zip(ks, inits, fits, traces):
        want_trace = []
        labels0, R, theta, sweeps, converged = _reference_vem(g, K, init, trace=want_trace,
                                                              **kwargs)
        assert (det.iterations, det.converged) == (sweeps, converged), K
        assert np.array_equal(det.partition.labels, compact_partition(labels0 + 1).labels), K
        assert final[id(det)].tobytes() == R.tobytes(), K
        assert theta_vb.tobytes() == theta.tobytes(), K
        assert [v.hex() for v in trace] == [v.hex() for v in want_trace], K
    return fits


def _spectral_starts(g, ks, seed):
    basis = community._top_eigvecs(g, max(ks))
    return [spectral_partition(g, K, seed, basis=basis) for K in ks]


class TestLockstep:
    # the K range's EMs in lockstep must give each K the bytes of its fit
    # alone (the reference loop), whatever K share a group and whenever
    # each K leaves
    def test_sweep_graph_over_k_5_to_15(self):
        g = _sbm_400(1000)
        ks = tuple(range(5, 16))
        fits = _assert_fits_match_reference(g, ks, _spectral_starts(g, ks, 1000))
        # the K leave at different sweeps, so the group is compacted
        assert len({det.iterations for det, _ in fits}) > 1

    @pytest.mark.parametrize("max_iter", [100, 3, 0])
    def test_unsorted_gapped_range_with_k1(self, max_iter):
        g = sample_sbm(affiliation_theta(K=10, lam=0.9, epsilon=0.1, rho=0.2), n=300,
                       seed=7)[0]
        ks = (12, 3, 1, 7)
        fits = _assert_fits_match_reference(g, ks, _spectral_starts(g, ks, 7),
                                            max_iter=max_iter)
        if max_iter == 3:  # every K but K = 1 stops at the cap
            assert [(det.iterations, det.converged) for det, _ in fits] == [
                (3, False), (3, False), (2, True), (3, False)]
        if max_iter == 0:  # no sweep: every start comes back finished
            assert [(det.iterations, det.converged) for det, _ in fits] == [(0, False)] * 4

    def test_redone_sweep_inside_a_group(self, monkeypatch):
        # the n=40 graph whose K = 3 fit from random init redoes a sweep
        # (test_batched_sweep_below_previous_is_redone), run beside two
        # fits that do not redo, each of which must keep its own bytes
        g, _ = sample_sbm(affiliation_theta(K=3, lam=0.8, epsilon=0.1, rho=1.0), n=40, seed=13)
        redone = []
        e_step = community._e_step

        def step(R, blocks, colsum, elog, lay, *entropy):
            if _block_width(blocks) == 1:
                redone.append(tuple(lay.ks))
            e_step(R, blocks, colsum, elog, lay, *entropy)

        monkeypatch.setattr(community, "_e_step", step)
        ks = (2, 3, 5)
        inits = [_random_init(g.n, 2, 1), _random_init(g.n, 3, 13), _random_init(g.n, 5, 2)]
        _assert_fits_match_reference(g, ks, inits)
        assert redone == [(3,)]

    def test_start_with_fewer_clusters_than_k(self):
        g = _sbm_400(2001)
        few = spectral_partition(g, 3, seed=1)
        inits = [few, few, spectral_partition(g, 6, seed=1)]
        _assert_fits_match_reference(g, (3, 5, 6), inits)

    @pytest.mark.parametrize("wide, groups", [
        (1, [(K,) for K in range(5, 16)]),
        (400 * 30, [(5, 6, 7, 8), (9, 10, 11), (12, 13), (14, 15)])])
    def test_groups_under_the_width_budget(self, monkeypatch, wide, groups):
        # consecutive K share a group while n x (sum of K) <= _WIDE, and a K
        # wider than the budget runs alone
        monkeypatch.setattr(community, "_WIDE", wide)
        seen = []
        fit_group = community._fit_group

        def recorded(X, ks, *args):
            seen.append(tuple(ks))
            return fit_group(X, ks, *args)

        monkeypatch.setattr(community, "_fit_group", recorded)
        g = _sbm_400(1001)
        ks = tuple(range(5, 16))
        _assert_fits_match_reference(g, ks, _spectral_starts(g, ks, 1001))
        assert seen == groups

    def test_group_counts_are_each_k_alone(self):
        # each K's counts from its columns of a wide R, as from its own
        # array (K = 1's column is all ones, as in every fit)
        X = community._csr_adjacency(_sbm_400(1000))
        ks = (3, 1, 12, 2)
        lay = community._layout(ks)
        rng = np.random.default_rng(5)
        R = np.concatenate([rng.dirichlet(np.ones(K), size=400) for K in ks], axis=1)
        edges, pairs, colsum = community._group_counts(R, X, lay)
        for K, c, m in zip(ks, lay.cols, lay.mats):
            want = _reference_counts(X, R[:, c].copy())
            assert edges[m].tobytes() == want[0].tobytes(), K
            assert pairs[m].tobytes() == want[1].tobytes(), K
            assert colsum[c].tobytes() == want[2].tobytes(), K

    def test_e_step_is_each_k_alone(self):
        # one sweep of a wide R: each K's new rows (normalised by its row
        # sums), column sums and entropy are the bytes of its sweep alone
        g = _sbm_400(1000)
        X = community._csr_adjacency(g)
        ks = (3, 1, 12, 2)
        lay = community._layout(ks)
        rng = np.random.default_rng(5)
        R = np.concatenate([rng.dirichlet(np.ones(K), size=400) for K in ks], axis=1)
        blocks = list(community._row_blocks(X, community._BLOCK))

        def sweep(R, lay):
            counts = community._group_counts(R, X, lay)
            elog, _ = community._sweep_terms(counts, lay)
            colsum, entropy = counts[2], np.zeros(R.shape[1])
            community._e_step(R, blocks, colsum, elog, lay, entropy)
            return colsum, np.add.reduceat(entropy, lay.starts)

        alone = [np.ascontiguousarray(R[:, c]) for c in lay.cols]
        colsum, entropy = sweep(R, lay)
        for i, (K, c, Rk) in enumerate(zip(ks, lay.cols, alone)):
            colsum_k, entropy_k = sweep(Rk, community._layout([K]))
            assert R[:, c].tobytes() == Rk.tobytes(), K
            assert colsum[c].tobytes() == colsum_k.tobytes(), K
            assert entropy[i:i + 1].tobytes() == entropy_k.tobytes(), K

    @pytest.mark.parametrize("case", ["sweep graph", "redone sweep"])
    def test_entropy_is_minus_sum_r_log_r(self, monkeypatch, case):
        # every objective's entropy, from a full-width sweep's E-step or
        # once from a one-node redo's result, is -sum R log R of the R it
        # scores, to 1e-12 relative; a near-hard R's entropy (7e-7 on the
        # n=40 graph) is allowed the rounding of r log r at an r near 1,
        # one unit of 1's last place per entry, in either computation
        if case == "sweep graph":
            g = _sbm_400(1000)
            ks = tuple(range(5, 16))
            inits = _spectral_starts(g, ks, 1000)
        else:  # the fits of test_redone_sweep_inside_a_group
            g, _ = sample_sbm(affiliation_theta(K=3, lam=0.8, epsilon=0.1, rho=1.0), n=40,
                              seed=13)
            ks = (2, 3, 5)
            inits = [_random_init(g.n, 2, 1), _random_init(g.n, 3, 13), _random_init(g.n, 5, 2)]
        seen, redo = [], []
        e_step, elbo = community._e_step, community._elbo

        def step(R, blocks, *args):
            redo.append(_block_width(blocks) == 1)
            e_step(R, blocks, *args)

        def recorded(R, X, elog, kl, entropy, lay):
            for K, c, value in zip(lay.ks, lay.cols, np.add.reduceat(entropy, lay.starts)):
                seen.append((int(K), redo[-1], value, -np.sum(xlogy(R[:, c], R[:, c])),
                             R.shape[0] * K * np.finfo(float).eps))
            return elbo(R, X, elog, kl, entropy, lay)

        monkeypatch.setattr(community, "_e_step", step)
        monkeypatch.setattr(community, "_elbo", recorded)
        community._fit_range(community._csr_adjacency(g), list(ks), inits, 100, 1e-3)
        assert {K for K, *_ in seen} == set(ks)
        assert [K for K, redone, *_ in seen if redone] == ([3] if case == "redone sweep" else [])
        for K, _, value, want, ulps in seen:
            assert abs(value - want) <= 1e-12 * abs(want) + ulps, K

    def test_compaction_keeps_responsibilities_c_ordered(self, monkeypatch):
        seen = []
        e_step = community._e_step

        def step(R, *args):
            seen.append((R.shape[1], R.flags.c_contiguous))
            e_step(R, *args)

        monkeypatch.setattr(community, "_e_step", step)
        g = _sbm_400(1000)
        ks = tuple(range(5, 16))
        community._fit_range(community._csr_adjacency(g), list(ks),
                             _spectral_starts(g, ks, 1000), 100, 1e-3)
        widths = [w for w, _ in seen]
        assert widths[0] == sum(ks) and len(set(widths)) > 2
        assert all(contiguous for _, contiguous in seen)

    def test_detect_range_is_each_k_alone(self):
        # against the one-K building blocks, each K with its own eigensolve
        g = _sbm_400(2002)
        ks = (9, 4, 6)
        for K, (det, theta_vb) in zip(ks, detect_range(g, ks, seed=3)):
            alone, theta = variational_em(g, K, spectral_partition(g, K, seed=3))
            assert det.partition == alone.partition
            assert (det.iterations, det.converged) == (alone.iterations, alone.converged)
            assert theta_vb.tobytes() == theta.tobytes()

    @pytest.mark.parametrize("k_range, builds", [((9, 4, 1, 6), 2), ((1,), 1)])
    def test_adjacency_built_for_the_solve_and_for_the_em(self, monkeypatch, k_range, builds):
        # not once per K; and not held across the spectral starts, where
        # it would sit beside k-means' scratch
        calls = []
        csr = community._csr_adjacency

        def counted(graph):
            calls.append(graph.n)
            return csr(graph)

        monkeypatch.setattr(community, "_csr_adjacency", counted)
        detect_range(_sbm_400(2002), k_range, seed=3)
        assert calls == [400] * builds

    def test_holds_one_group_of_results_at_a_time(self, monkeypatch):
        # the fit drops each group's responsibilities before it fits the
        # next, and keeps only each K's partition, flags and theta_vb, so
        # it never holds the whole range's responsibilities
        n, ks = 500, tuple(range(2, 42))
        g = sample_sbm(affiliation_theta(K=10, lam=0.9, epsilon=0.1, rho=0.2), n=n,
                       seed=3)[0]
        monkeypatch.setattr(community, "_WIDE", n * max(ks))  # at most 41 columns a group
        X, inits = community._csr_adjacency(g), _spectral_starts(g, ks, 3)
        tracemalloc.start()
        try:
            fits = community._fit_range(X, list(ks), inits, 2, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(fits) == len(ks)
        # the range's responsibilities are 8 n (sum of K) = 3.4 MB; a
        # group's R, sweep-start copy and products and the results are less
        # than half of that
        assert peak < 8 * n * sum(ks) / 2, f"peak allocation {peak / 1e6:.1f} MB"

    def test_results_hold_no_adjacency_and_no_responsibilities(self, monkeypatch):
        # the list detect_range returns keeps each K's partition, flags and
        # theta_vb: no adjacency, and no float array with a row per node
        built = []
        csr = community._csr_adjacency

        def recorded(graph):
            X = csr(graph)
            built.append(weakref.ref(X))
            return X

        monkeypatch.setattr(community, "_csr_adjacency", recorded)
        monkeypatch.setattr(community, "_WIDE", 400 * 9)  # groups (9, 4), (6,)
        g = _sbm_400(2002)
        fits = detect_range(g, (9, 4, 6), seed=3)
        assert isinstance(fits, list) and len(fits) == 3
        assert built and all(ref() is None for ref in built)
        seen, stack = set(), [fits]
        while stack:  # everything the results reach, past classes and modules
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
                continue
            seen.add(id(obj))
            assert not (isinstance(obj, np.ndarray) and obj.dtype.kind == "f"
                        and obj.ndim and obj.shape[0] == g.n), obj.shape
            stack.extend(gc.get_referents(obj))
        for det, _ in fits:
            assert [f.name for f in dataclasses.fields(det)] == [
                "partition", "converged", "iterations"]

    def test_detect_range_checks_every_k_first(self, monkeypatch):
        g, _ = cliques_graph(4)
        monkeypatch.setattr(community, "_top_eigvecs", None)  # no solve is made
        with pytest.raises(ValueError, match="K=9 exceeds node count 8"):
            detect_range(g, (2, 9), seed=0)
        with pytest.raises(ValueError, match="K must be >= 1"):
            detect_range(g, (2, 0), seed=0)
        with pytest.raises(ValueError, match="k_range must be nonempty"):
            detect_range(g, [], seed=0)


class TestDetectOneK:
    def test_shapes_and_determinism(self):
        spec = affiliation_theta(K=4, lam=0.8, epsilon=0.1, rho=1.0)
        g, _ = sample_sbm(spec, n=60, seed=0)
        det1, th1 = detect_range(g, (4,), seed=7)[0]
        det2, th2 = detect_range(g, (4,), seed=7)[0]
        assert det1.partition == det2.partition
        assert np.array_equal(th1, th2)
        assert th1.shape == (det1.partition.K, det1.partition.K)

    def test_recovers_cliques(self):
        g, labels = cliques_graph(10)
        det, theta_vb = detect_range(g, (2,), seed=0)[0]
        assert hungarian_agreement(det.partition.labels, labels) == 1.0

    def test_allocates_no_node_by_node_array(self):
        # at n=3000 one n x n array is 72 MB in float64 and 9 MB even at one
        # byte an entry; detection needs O(m + nR) memory (the sparse
        # adjacency, n x K assignments, the Lanczos basis, k-means' (R, n)
        # labels for its R = 10 restarts and 2^16-entry distance chunks),
        # about 3.1 MB measured, so 4 MB admits no n x n array of any
        # dtype, nor k-means' n x R K distances whole beside the rest
        spec = affiliation_theta(K=10, lam=0.9, epsilon=0.1, rho=0.02)
        g, _ = sample_sbm(spec, n=3000, seed=0)
        tracemalloc.start()
        try:
            detect_range(g, (10,), seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000, f"peak allocation {peak / 1e6:.1f} MB"


def test_soft_start_validation():
    g, _ = cliques_graph(3)
    with pytest.raises(ValueError, match=r"soft start of shape \(6, 3\) is not \(6, 2\)"):
        variational_em(g, 2, _random_init(g.n, 3, 0))
    with pytest.raises(ValueError, match=r"is not \(6, 2\)"):
        variational_em(g, 2, _random_init(g.n - 1, 2, 0))
    bad = _random_init(g.n, 2, 0)
    bad[4] *= 1.1
    with pytest.raises(ValueError, match="soft start rows must be nonnegative and sum to 1"):
        variational_em(g, 2, bad)
    bad[4] = (1.5, -0.5)
    with pytest.raises(ValueError, match="soft start rows must be nonnegative"):
        variational_em(g, 2, bad)
    det, _ = variational_em(g, 2, _random_init(g.n, 2, 0).tolist())  # any array-like
    assert det.partition.n == g.n
