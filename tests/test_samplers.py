import hashlib
import tracemalloc

import numpy as np
import pytest

from ebsbm import samplers
from ebsbm.graph import block_stats, compact_partition
from ebsbm.io import write_edge_list
from ebsbm.samplers import (
    GraphonSpec,
    SbmSpec,
    _draw_sbm,
    affiliation_theta,
    powerlaw_graphon,
    sample_graphon,
    sample_sbm,
)


class TestSpecs:
    def test_sbm_spec_validation(self):
        with pytest.raises(ValueError):
            SbmSpec(pi=np.array([0.6, 0.6]), theta=np.eye(2))
        with pytest.raises(ValueError):
            SbmSpec(pi=np.array([0.5, 0.5]), theta=np.array([[0.1, 0.9], [0.2, 0.1]]))
        with pytest.raises(ValueError):
            SbmSpec(pi=np.array([1.0]), theta=np.array([[1.5]]))

    def test_graphon_spec_probe(self):
        with pytest.raises(ValueError):
            GraphonSpec(w=lambda x, y: x + y)  # exceeds 1
        with pytest.raises(ValueError):
            GraphonSpec(w=lambda x, y: 0.5 * x)  # asymmetric

    def test_powerlaw_params(self):
        spec = powerlaw_graphon(rho=0.1, lam=2.0)
        assert spec.w(1.0, 1.0) == pytest.approx(0.4)
        assert spec.rho == 0.1 and spec.lam == 2.0
        with pytest.raises(ValueError):
            powerlaw_graphon(rho=0.5, lam=3.0)  # rho * lam^2 > 1
        with pytest.raises(ValueError):
            powerlaw_graphon(rho=0.1, lam=0.5)  # unbounded near origin


class TestAffiliation:
    def test_model1_parameters(self):
        spec = affiliation_theta(K=10, lam=0.9, epsilon=0.1, rho=1.0)
        assert np.allclose(np.diag(spec.theta), 0.9)
        off = spec.theta[~np.eye(10, dtype=bool)]
        assert np.allclose(off, 0.1)
        assert np.allclose(spec.pi, 0.1)

    def test_sparse_scaling(self):
        spec = affiliation_theta(K=10, lam=0.9, epsilon=0.1, rho=0.2)
        assert np.allclose(np.diag(spec.theta), 0.18)
        assert np.allclose(spec.theta[0, 1], 0.02)

    def test_single_block(self):
        spec = affiliation_theta(K=1, lam=0.5, epsilon=0.0, rho=1.0)
        assert spec.theta.shape == (1, 1)
        assert spec.theta[0, 0] == pytest.approx(0.5)

    def test_parameter_checks(self):
        with pytest.raises(ValueError):
            affiliation_theta(K=0, lam=0.5, epsilon=0.1, rho=1.0)
        with pytest.raises(ValueError):
            affiliation_theta(K=2, lam=0.5, epsilon=0.6, rho=1.0)
        with pytest.raises(ValueError):
            affiliation_theta(K=2, lam=0.5, epsilon=0.1, rho=0.0)


class TestSampleSbm:
    def test_complete_graph(self):
        spec = SbmSpec(pi=np.array([0.5, 0.5]), theta=np.ones((2, 2)))
        g, part = sample_sbm(spec, n=12, seed=0)
        assert g.edge_count == 12 * 11 // 2

    def test_empty_graph(self):
        spec = SbmSpec(pi=np.array([1.0]), theta=np.zeros((1, 1)))
        g, _ = sample_sbm(spec, n=20, seed=0)
        assert g.edge_count == 0

    def test_determinism(self):
        spec = affiliation_theta(K=3, lam=0.8, epsilon=0.05, rho=1.0)
        g1, p1 = sample_sbm(spec, n=50, seed=42)
        g2, p2 = sample_sbm(spec, n=50, seed=42)
        assert np.array_equal(g1.edges, g2.edges)
        assert p1 == p2
        g3, _ = sample_sbm(spec, n=50, seed=43)
        assert not np.array_equal(g1.edges, g3.edges)

    def test_partition_compacted(self):
        # tiny n with many clusters: some clusters must come out empty
        spec = affiliation_theta(K=10, lam=0.9, epsilon=0.1, rho=1.0)
        g, part = sample_sbm(spec, n=4, seed=1)
        assert part.K <= 4
        assert np.all(part.sizes >= 1)

    def test_within_block_frequency_concentrates(self):
        # oracle: Monte Carlo concentration over 10 seeds
        spec = SbmSpec(pi=np.array([0.5, 0.5]),
                       theta=np.array([[0.9, 0.1], [0.1, 0.9]]))
        for seed in range(10):
            g, part = sample_sbm(spec, n=500, seed=seed)
            s = block_stats(g, part)
            x, m = s.diagonal_counts()
            freq = x.sum() / m.sum()
            assert abs(freq - 0.9) < 0.02


class TestSampleGraphon:
    def test_constant_is_erdos_renyi(self):
        spec = powerlaw_graphon(0.3, 1.0)
        dens = []
        for seed in range(10):
            g, u = sample_graphon(spec, n=200, seed=seed)
            assert u.shape == (200,)
            assert np.all((u >= 0) & (u < 1))
            dens.append(g.density())
        assert abs(np.mean(dens) - 0.3) < 0.01

    def test_powerlaw_density_matches_rho(self):
        # oracle: E W(u,v) = rho, Monte Carlo over 10 seeds
        spec = powerlaw_graphon(rho=0.1, lam=2.0)
        dens = [sample_graphon(spec, n=316, seed=s)[0].density() for s in range(10)]
        assert abs(np.mean(dens) - 0.1) < 0.01

    def test_determinism(self):
        spec = powerlaw_graphon(rho=0.1, lam=3.0)
        g1, u1 = sample_graphon(spec, n=80, seed=7)
        g2, u2 = sample_graphon(spec, n=80, seed=7)
        assert np.array_equal(g1.edges, g2.edges)
        assert np.array_equal(u1, u2)

    def test_out_of_range_w_rejected_at_sampling(self):
        spec = unprobed_spec(lambda x, y: np.full(np.broadcast(x, y).shape, 1.5))
        with pytest.raises(ValueError):
            sample_graphon(spec, n=5, seed=0)

    def test_guard_reaches_late_blocks(self, monkeypatch):
        # w leaves [0, 1] only on the pair of the two latents above 0.97,
        # nodes 92 and 99, whose row lies far past the first block
        monkeypatch.setattr(samplers, "_BLOCK_PAIRS", 64)
        u = np.random.default_rng(18).random(100)
        assert np.flatnonzero(u > 0.97).tolist() == [92, 99]
        spec = unprobed_spec(lambda x, y: np.where((x > 0.97) & (y > 0.97), 1.5, 0.2))
        with pytest.raises(ValueError, match="outside"):
            sample_graphon(spec, n=100, seed=18)

    @pytest.mark.parametrize("block", [1, 7, 64, samplers._BLOCK_PAIRS])
    def test_guard_skips_the_diagonal(self, monkeypatch, block):
        # x == y only where a node meets itself, which is never a sampled
        # pair; elsewhere w is the constant 0.3, so the graph is that one's
        monkeypatch.setattr(samplers, "_BLOCK_PAIRS", block)
        spec = unprobed_spec(lambda x, y: np.where(x == y, 1.5, 0.3))
        g, u = sample_graphon(spec, n=60, seed=4)
        ref, ref_u = sample_graphon(powerlaw_graphon(0.3, 1.0), n=60, seed=4)
        assert np.array_equal(g.edges, ref.edges) and np.array_equal(u, ref_u)

    @pytest.mark.parametrize("block", [1, 7, 64, samplers._BLOCK_PAIRS])
    def test_unsampled_tile_entries_never_edges(self, monkeypatch, block):
        # a tile is rows r0.. against columns r0+1..; its entries strictly
        # below the upper triangle are the diagonal and lower triangle of
        # the adjacency, where w here is 1 and on the pairs themselves 0
        monkeypatch.setattr(samplers, "_BLOCK_PAIRS", block)
        spec = unprobed_spec(lambda x, y: np.tril(np.ones(np.broadcast(x, y).shape), k=-1))
        g, _ = sample_graphon(spec, n=60, seed=0)
        assert g.edge_count == 0


def unprobed_spec(w):
    """A GraphonSpec that bypasses the probe, to test the sampler's guard."""
    spec = GraphonSpec.__new__(GraphonSpec)
    object.__setattr__(spec, "w", w)
    object.__setattr__(spec, "rho", None)
    object.__setattr__(spec, "lam", None)
    return spec


def all_pairs_reference(n, seed, draw_nodes, pair_probs):
    """Every pair at once, as np.triu_indices orders them: the form the
    block samplers must reproduce draw for draw."""
    rng = np.random.default_rng(seed)
    nodes = draw_nodes(rng)
    i, j = np.triu_indices(n, k=1)
    keep = rng.random(i.size) < pair_probs(nodes, i, j)
    return np.column_stack((i[keep], j[keep])), nodes


class TestBlockSampling:
    # block 1 gives one row per block (down to one pair), 7 and 64 give
    # multi-row blocks with a ragged last block; the default is one block
    @pytest.mark.parametrize("block", [1, 7, 64, samplers._BLOCK_PAIRS])
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 60])
    def test_same_stream_as_all_pairs(self, monkeypatch, block, n):
        monkeypatch.setattr(samplers, "_BLOCK_PAIRS", block)
        sbm = affiliation_theta(K=3, lam=0.6, epsilon=0.1, rho=1.0)
        graphon = powerlaw_graphon(rho=0.25, lam=2.0)
        for seed in (0, 3, 11):
            edges, z0 = all_pairs_reference(
                n, seed, lambda rng: rng.choice(sbm.K, size=n, p=sbm.pi),
                lambda z, i, j: sbm.theta[z[i], z[j]])
            g, got_z0 = _draw_sbm(sbm, n, seed)
            assert np.array_equal(g.edges, edges) and np.array_equal(got_z0, z0)
            edges, u = all_pairs_reference(
                n, seed, lambda rng: rng.random(n), lambda u, i, j: graphon.w(u[i], u[j]))
            g, got_u = sample_graphon(graphon, n, seed)
            assert np.array_equal(g.edges, edges) and np.array_equal(got_u, u)

    @pytest.mark.parametrize("draw", [
        lambda seed: _draw_sbm(affiliation_theta(10, 0.9, 0.1, 0.05), 4000, seed),
        lambda seed: sample_graphon(powerlaw_graphon(0.05, 2.0), 4000, seed),
    ], ids=["sbm", "graphon"])
    def test_memory_is_linear_in_n_and_m(self, draw):
        # n=4000 has 8.0M pairs: drawn all at once, their indices, draws
        # and probabilities peak above 300 MB; a block's tiles of 2^20
        # entries (8 MB in float64, a few at once) and at most 0.4M edges
        # stay under 48 MB
        tracemalloc.start()
        try:
            draw(1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48_000_000, f"peak allocation {peak / 1e6:.1f} MB"


def test_sbm_matches_piecewise_constant_graphon_distribution():
    # Block-density statistics agree within 3 standard errors over 50 seeds.
    pi = np.array([0.5, 0.5])
    theta = np.array([[0.6, 0.15], [0.15, 0.3]])
    spec_sbm = SbmSpec(pi=pi, theta=theta)

    def w(x, y):
        a = np.where(np.asarray(x) < 0.5, 0, 1)
        b = np.where(np.asarray(y) < 0.5, 0, 1)
        return theta[a, b]

    spec_w = GraphonSpec(w=w)
    n = 300

    def block_freqs_sbm(seed):
        g, part = sample_sbm(spec_sbm, n=n, seed=seed)
        s = block_stats(g, part)
        with np.errstate(invalid="ignore"):
            return s.edge_counts / np.maximum(s.pair_counts, 1)

    def block_freqs_graphon(seed):
        g, u = sample_graphon(spec_w, n=n, seed=seed)
        labels = np.where(u < 0.5, 1, 2)
        part = compact_partition(labels)
        s = block_stats(g, part)
        return s.edge_counts / np.maximum(s.pair_counts, 1)

    f_sbm = np.array([block_freqs_sbm(s) for s in range(50)])
    f_gra = np.array([block_freqs_graphon(s, ) for s in range(50, 100)])
    for idx in [(0, 0), (0, 1), (1, 1)]:
        a = f_sbm[:, idx[0], idx[1]]
        b = f_gra[:, idx[0], idx[1]]
        se = np.sqrt(a.var(ddof=1) / 50 + b.var(ddof=1) / 50)
        assert abs(a.mean() - b.mean()) <= 3 * se + 1e-12


@pytest.mark.parametrize("model, digest", [
    ("sbm", "043c5b7f969086786b1212cdf7e11d9eb3dad87a8d81482e2f8df27f2233721d"),
    ("graphon", "35b52d88f01b0fc1449b30d479b32d6f5da864bf08834caa68fb4b9be5898c39"),
])
def test_sampled_edge_list_bytes_pinned(tmp_path, model, digest):
    # digests of the written edge lists from the frozenset-based graph core;
    # sampling and writing must stay byte-identical
    if model == "sbm":
        g, _ = sample_sbm(affiliation_theta(K=3, lam=0.6, epsilon=0.1, rho=1.0), n=60, seed=7)
    else:
        g, _ = sample_graphon(powerlaw_graphon(rho=0.1, lam=2.0), n=60, seed=7)
    path = tmp_path / "edges.txt"
    write_edge_list(g, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
