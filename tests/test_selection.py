import json
import math

import numpy as np
import pytest

from ebsbm.estimator import fit_hyperparams
from ebsbm.experiment import analyze_graph
from ebsbm.graph import Graph, Partition, block_stats
from ebsbm.samplers import affiliation_theta, sample_sbm
from ebsbm.selection import (
    SelectionScore,
    cvrp_score,
    eb_penalty,
    log_dirichlet_marginal,
    pick_best,
    score_partition,
)
from helpers import log_dirichlet_marginal_lgamma, two_cliques_graph


class TestLogDirichletMarginal:
    def test_two_singletons(self):
        got = log_dirichlet_marginal([1, 1], tau=0.5)
        assert got == pytest.approx(math.log(1 / 8), abs=1e-12)

    def test_single_cluster_cancels(self):
        for n in (1, 5, 200):
            assert log_dirichlet_marginal([n], tau=0.5) == pytest.approx(0.0, abs=1e-10)

    def test_against_lgamma_oracle(self):
        # oracle: independent stdlib-lgamma arithmetic
        for sizes in ([2, 3], [10, 1, 7], [4, 4, 4, 4]):
            got = log_dirichlet_marginal(sizes, tau=0.5)
            assert got == pytest.approx(log_dirichlet_marginal_lgamma(sizes), abs=1e-10)

    def test_input_checks(self):
        with pytest.raises(ValueError):
            log_dirichlet_marginal([], tau=0.5)
        with pytest.raises(ValueError):
            log_dirichlet_marginal([0, 2], tau=0.5)
        with pytest.raises(ValueError):
            log_dirichlet_marginal([1, 1], tau=0.0)


class TestEbPenalty:
    def test_minimal(self):
        assert eb_penalty(1, 2) == pytest.approx(0.0, abs=1e-15)

    def test_k2_n200(self):
        # oracle: direct arithmetic
        want = 0.5 * (math.log(200) + 3 * math.log(200 * 199 / 2))
        assert eb_penalty(2, 200) == pytest.approx(want, abs=1e-12)
        assert eb_penalty(2, 200) == pytest.approx(17.497, abs=5e-4)

    def test_k1_n100(self):
        want = 0.5 * math.log(100 * 99 / 2)
        assert eb_penalty(1, 100) == pytest.approx(want, abs=1e-12)
        assert eb_penalty(1, 100) == pytest.approx(4.254, abs=5e-4)

    def test_monotone_in_k(self):
        for n in (3, 10, 500):
            vals = [eb_penalty(K, n) for K in range(1, 12)]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_monotone_in_n(self):
        for K in (2, 5):
            vals = [eb_penalty(K, n) for n in range(2, 40)]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        # K = 2.5 once returned a charge of 10.054
        for K, n, message in ((0, 10, "K must be >= 1, got 0"), (2, 1, "n must be >= 2, got 1"),
                              (2.5, 10, "K must be an integer, got 2.5"),
                              (2, 10.0, "n must be an integer, got 10.0")):
            with pytest.raises(ValueError) as info:
                eb_penalty(K, n)
            assert str(info.value) == message
        assert eb_penalty(np.int64(2), np.int64(10)) == eb_penalty(2, 10)


class TestCvrp:
    def test_literal_depends_only_on_k(self):
        # proportions sum to one, so the printed formula collapses to -K
        for labels in ([1, 1, 2, 2], [1, 2, 2, 2], [1, 2, 3, 3]):
            p = Partition.from_labels(labels)
            want = p.K * (2 - (4 + 1)) / (4 - 1)
            assert cvrp_score(p, 4, mode="literal") == pytest.approx(want, abs=1e-12)
            assert cvrp_score(p, 4, mode="literal") == pytest.approx(-p.K, abs=1e-12)

    def test_squared_example(self):
        p = Partition.from_labels([1, 1, 2, 2])
        # oracle: 2*2/3 - (5*2/3)*(1/4 + 1/4) = -1/3
        assert cvrp_score(p, 4, mode="squared") == pytest.approx(-1 / 3, abs=1e-12)

    def test_squared_single_cluster(self):
        for n in (3, 10, 50):
            p = Partition.from_labels([1] * n)
            assert cvrp_score(p, n, mode="squared") == pytest.approx(-1.0, abs=1e-12)

    def test_domain(self):
        p = Partition.from_labels([1])
        with pytest.raises(ValueError, match=r"^n must be >= 2, got 1$"):
            cvrp_score(p, 1, mode="squared")
        with pytest.raises(ValueError):
            cvrp_score(Partition.from_labels([1, 2]), 2, mode="nope")
        # a float n was once accepted
        p = Partition.from_labels([1] * 30 + [2] * 30)
        with pytest.raises(ValueError, match=r"^n must be an integer, got 60.0$"):
            cvrp_score(p, 60.0)
        assert cvrp_score(p, np.int64(60)) == cvrp_score(p, 60)


def graph_of(n, edges):
    return Graph(n=n, edges=frozenset(edges))


def scored(g, p):
    """The partition's score row from its own counts and their fit."""
    stats = block_stats(g, p)
    return score_partition(p, stats, fit_hyperparams(stats))


class TestJz:
    def test_k1_structure(self):
        g = graph_of(6, [(0, 1), (2, 3), (1, 4)])
        part = Partition.from_labels([1] * 6)
        row = scored(g, part)
        assert not row.hyper.offdiag_fitted
        # Dirichlet term vanishes for K = 1, off-diagonal sum is empty
        from ebsbm.estimator import marginal_loglik
        stats = block_stats(g, part)
        assert row.j_z == pytest.approx(
            marginal_loglik(stats, row.hyper.alpha0, row.hyper.beta0, "diagonal"), abs=1e-10)

    def test_two_cliques_prefers_k2(self):
        n, edges, labels = two_cliques_graph(size=5)
        g = graph_of(n, edges)
        s2 = scored(g, Partition.from_labels(labels)).j_z
        s1 = scored(g, Partition.from_labels([1] * n)).j_z
        assert s2 > s1

    def test_label_permutation_invariant(self):
        n, edges, labels = two_cliques_graph(size=4)
        g = graph_of(n, edges)
        swapped = [3 - l for l in labels]
        a = scored(g, Partition.from_labels(labels)).j_z
        b = scored(g, Partition.from_labels(swapped)).j_z
        assert a == pytest.approx(b, abs=1e-9)


def select(g, candidates, criterion):
    """The selection step of experiment.analyze_graph: score every
    candidate, then pick by the criterion."""
    scores = [scored(g, p) for p in candidates]
    return candidates[pick_best(scores, criterion)], scores


class TestSelectPartition:
    def test_single_candidate(self):
        g = graph_of(4, [(0, 1)])
        p = Partition.from_labels([1, 1, 1, 1])
        best, scores = select(g, [p], criterion="EB")
        assert best == p
        assert len(scores) == 1
        assert scores[0].total == scores[0].j_z - scores[0].penalty

    def test_two_cliques_eb_selects_k2(self):
        n, edges, labels = two_cliques_graph(size=10)
        g = graph_of(n, edges)
        cands = [
            Partition.from_labels([1] * n),
            Partition.from_labels(labels),
            Partition.from_labels([1] * 5 + [2] * 5 + [3] * 10),
        ]
        best, scores = select(g, cands, criterion="EB")
        assert best.K == 2
        totals = {s.K: s.total for s in scores}
        assert totals[2] > totals[1] and totals[2] > totals[3]

    def test_cvrp_criterion_argmin(self):
        g = graph_of(6, [(0, 1), (2, 3)])
        cands = [Partition.from_labels([1] * 6),
                 Partition.from_labels([1, 1, 1, 2, 2, 2])]
        best, scores = select(g, cands, criterion="CVRP")
        cvrps = [s.cvrp for s in scores]
        assert best == cands[int(np.argmin(cvrps))]

    def test_identical_candidates_identical_scores(self):
        n, edges, labels = two_cliques_graph(size=4)
        g = graph_of(n, edges)
        p = Partition.from_labels(labels)
        _, scores = select(g, [p, p], criterion="EB")
        assert scores[0].total == scores[1].total
        assert scores[0].cvrp == scores[1].cvrp

    def test_tie_breaks_to_smaller_k_then_input_order(self):
        from ebsbm.estimator import HyperParams

        hp = HyperParams(1.0, 1.0, 1.0, 1.0)

        def row(K, total, cvrp):
            return SelectionScore(K=K, j_z=total, penalty=0.0, total=total,
                                  cvrp=cvrp, hyper=hp)

        tied = [row(3, -5.0, 1.0), row(2, -5.0, 1.0), row(2, -5.0, 1.0)]
        assert pick_best(tied, "EB") == 1  # smaller K wins, then first of equals
        assert pick_best(tied, "CVRP") == 1
        assert pick_best([row(2, -7.0, 0.5), row(2, -6.0, 0.9)], "EB") == 1
        assert pick_best([row(2, -7.0, 0.5), row(2, -6.0, 0.9)], "CVRP") == 0
        with pytest.raises(ValueError):
            pick_best(tied, "eb")

    @pytest.mark.parametrize("criterion", ["EB", "CVRP"])
    def test_no_rows_raise(self, criterion):
        # index 0 of no rows would send every caller to an empty list
        with pytest.raises(ValueError, match="no score rows"):
            pick_best([], criterion)


def test_analyze_graph_scores_each_partition_from_its_counts():
    # every record's score is the detected partition's, to the last bit of
    # what records.jsonl writes
    spec = affiliation_theta(K=3, lam=0.8, epsilon=0.1, rho=1.0)
    g, _ = sample_sbm(spec, n=60, seed=4)
    records, _, estimates = analyze_graph(g, (1, 2, 3, 4), seed=1)
    for rec, est in zip(records, estimates):
        p = est["partition"]
        stats = block_stats(g, p)
        want = score_partition(p, stats, fit_hyperparams(stats))
        assert json.dumps(rec.scores[0].to_json_dict()) == json.dumps(want.to_json_dict())


@pytest.mark.parametrize("other", [[1] * 10 + [2] * 5 + [3] * 5, [1] * 8 + [2] * 12],
                         ids=["other K", "other sizes"])
def test_stats_of_another_partition_rejected(other):
    # another partition's counts once scored the two cliques' 2-cluster
    # partition: totals -26.88 (3 clusters) and -111.99 (sizes 8 and 12)
    n, edges, labels = two_cliques_graph(size=10)
    g = graph_of(n, edges)
    p = Partition.from_labels(labels)
    stats = block_stats(g, Partition.from_labels(other))
    with pytest.raises(ValueError) as info:
        score_partition(p, stats, fit_hyperparams(stats))
    assert str(info.value) == "stats are not the block counts of this 2-cluster partition"


def test_scores_to_csv(tmp_path):
    from ebsbm.selection import scores_to_csv
    n, edges, labels = two_cliques_graph(size=4)
    g = graph_of(n, edges)
    scores = [scored(g, Partition.from_labels(labels))]
    path = tmp_path / "scores.csv"
    scores_to_csv(scores, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "K,j_z,penalty,total,cvrp,alpha0,beta0,alpha1,beta1"
    assert len(lines) == 2
    assert lines[1].startswith("2,")
