import hashlib
import tracemalloc

import numpy as np
import pytest

from ebsbm import samplers
from ebsbm.graph import block_stats
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

    @pytest.mark.parametrize("rho, lam, message", [
        (float("nan"), 2.0, "rho must lie in"),
        (float("inf"), 2.0, "rho must lie in"),
        (0.1, float("nan"), "lam must be >= 1"),  # once caught by a probe grid only
        (0.1, float("-inf"), "lam must be >= 1"),
        (0.1, float("inf"), "rho \\* lam\\^2 must not exceed 1"),
    ])
    def test_graphon_spec_rejects_non_finite(self, rho, lam, message):
        with pytest.raises(ValueError, match=message):
            GraphonSpec(rho, lam)

    def test_graphon_spec_peak_and_equality(self):
        spec = GraphonSpec(0.1, 2.0)
        assert spec.w(1.0, 1.0) == spec.rho * spec.lam**2
        assert spec == powerlaw_graphon(0.1, 2) and hash(spec) == hash(GraphonSpec(0.1, 2.0))
        assert spec != GraphonSpec(0.1, 3.0)

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
            dens.append(g.edge_count / (200 * 199 / 2))
        assert abs(np.mean(dens) - 0.3) < 0.01

    def test_powerlaw_density_matches_rho(self):
        # oracle: E W(u,v) = rho, Monte Carlo over 10 seeds
        spec = powerlaw_graphon(rho=0.1, lam=2.0)
        dens = [sample_graphon(spec, n=316, seed=s)[0].edge_count / (316 * 315 / 2)
                for s in range(10)]
        assert abs(np.mean(dens) - 0.1) < 0.01

    def test_determinism(self):
        spec = powerlaw_graphon(rho=0.1, lam=3.0)
        g1, u1 = sample_graphon(spec, n=80, seed=7)
        g2, u2 = sample_graphon(spec, n=80, seed=7)
        assert np.array_equal(g1.edges, g2.edges)
        assert np.array_equal(u1, u2)

    @pytest.mark.parametrize("block", [1, 7, 64, 1 << 20])
    def test_guard_skips_the_diagonal(self, monkeypatch, block):
        # a tile is rows r0..r1-1 against columns r0+1..n-1, so its entry
        # (a, b) is a node against itself where b == a - 1, never a sampled
        # pair; there the tile reads 1.5 and elsewhere 0.3, so the edges
        # are the constant 0.3's, draw for draw
        monkeypatch.setattr(samplers, "_BLOCK_PAIRS", block)

        def tile(r0, r1):
            a, b = np.indices((r1 - r0, 59 - r0))
            return np.where(b == a - 1, 1.5, 0.3)

        edges = samplers._sample_pairs(np.random.default_rng(4), 60, tile)
        ref, _ = all_pairs_reference(60, 4, lambda rng: None, lambda _, i, j: 0.3)
        assert ref.size and np.array_equal(edges, ref)

    @pytest.mark.parametrize("block", [1, 7, 64, 1 << 20])
    def test_unsampled_tile_entries_never_edges(self, monkeypatch, block):
        # a tile's entries strictly below its upper triangle are the
        # diagonal and lower triangle of the adjacency: a tile of 1 there
        # and 0 on the pairs draws no edge, its complement every pair
        monkeypatch.setattr(samplers, "_BLOCK_PAIRS", block)

        def ones(r0, r1):
            return np.ones((r1 - r0, 59 - r0))

        rng = np.random.default_rng(0)
        below = samplers._sample_pairs(rng, 60, lambda *rows: np.tril(ones(*rows), k=-1))
        pairs = samplers._sample_pairs(rng, 60, lambda *rows: np.triu(ones(*rows)))
        assert below.size == 0 and len(pairs) == 60 * 59 // 2


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
    # multi-row blocks with a ragged last block; 2^20 (like the default
    # 2^16) puts each of these graphs in one block
    @pytest.mark.parametrize("block", [1, 7, 64, 1 << 20])
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

    @pytest.mark.parametrize("draw, bound", [
        (lambda seed: _draw_sbm(affiliation_theta(10, 0.9, 0.1, 0.05), 4000, seed), 6_000_000),
        (lambda seed: sample_graphon(powerlaw_graphon(0.05, 2.0), 4000, seed), 20_000_000),
    ], ids=["sbm", "graphon"])
    def test_memory_is_linear_in_n_and_m(self, draw, bound):
        # n=4000 has 8.0M pairs: drawn all at once, their indices, draws
        # and probabilities peak above 300 MB. A block's tiles of 2^16
        # entries (0.5 MB in float64, a few at once) leave the edges, held
        # twice while their blocks are joined, as the peak: 3.1 MB measured
        # for the block model's 72k edges and 16.7 MB for the graphon's 0.4M
        tracemalloc.start()
        try:
            draw(1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, f"peak allocation {peak / 1e6:.1f} MB"


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


def test_many_tile_edge_list_bytes_pinned(tmp_path):
    # 72,248 edges from 8.0M pairs: 127 sampler tiles and nine writer
    # chunks; digest recorded with 2^20-pair tiles and a per-line writer
    g, _ = sample_sbm(affiliation_theta(K=10, lam=0.9, epsilon=0.1, rho=0.05), n=4000, seed=1)
    assert g.edge_count == 72_248
    path = tmp_path / "edges.txt"
    write_edge_list(g, path)
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == "b74973c52d0f8ac003b7124a3b5fb6232cbdf2d11e06db7138e9927a4b6ed802")
