"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured quantities and runtime."""

import contextlib
import math
import os
import time

import numpy as np
import pytest

from ebsbm.estimator import (
    HYPER_BOX_LOWER,
    HYPER_BOX_UPPER,
    HyperParams,
    eb_estimate,
    fit_hyperparams,
    loglik_gradient,
    marginal_loglik,
    mle_estimate,
)
from ebsbm.experiment import (
    ExperimentConfig,
    analyze_graph,
    run_experiment,
    run_testlik_protocol,
    _simulate_replicate,
)
from ebsbm.graph import BlockStats, Partition
from ebsbm.graphon import bin_index, build_step_graphon, mse_graphon, reorder_identifiable
from ebsbm.io import bundled_data_path, ingest_network
from ebsbm.metrics import deviation_metrics
from ebsbm.numerics import digamma, log_beta, log_gamma
from ebsbm.samplers import powerlaw_graphon
from ebsbm.selection import cvrp_score
from helpers import grid_search_max_marginal, quad_marginal_loglik

_WORKERS = min(4, os.cpu_count() or 1)


@contextlib.contextmanager
def criterion(num, label):
    start = time.perf_counter()
    info = {}
    try:
        yield info
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE FAIL criterion {num}: {label} ({elapsed:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    detail = " ".join(f"{k}={v}" for k, v in info.items())
    print(f"ACCEPTANCE PASS criterion {num}: {label} {detail}({elapsed:.1f}s)")


def random_block_stats(rng, k_max=5, n_max=50):
    K = int(rng.integers(1, k_max + 1))
    sizes = rng.integers(2, 8, size=K)
    pair = np.outer(sizes, sizes)
    np.fill_diagonal(pair, sizes * (sizes - 1) // 2)
    pair = np.minimum(pair, n_max)
    p = rng.beta(1.2, 2.5, size=(K, K))
    p = (p + p.T) / 2
    x = np.triu(rng.binomial(pair, p))
    x = x + np.triu(x, 1).T
    return BlockStats(K=K, edge_counts=x, pair_counts=pair)


def test_criterion_1_numerics_oracles():
    with criterion(1, "numerics oracle suite") as info:
        t0 = time.perf_counter()
        assert abs(log_beta(1.0, 1.0)) <= 1e-12
        assert abs(log_beta(2.0, 2.0) - math.log(1 / 6)) <= 1e-12
        assert abs(log_beta(0.5, 0.5) - math.log(math.pi)) <= 1e-12
        assert abs(log_gamma(10.0) - math.log(362880.0)) <= 1e-12 * math.log(362880.0)

        h = 1e-5
        for x in np.geomspace(0.5, 1e3, 60):
            fd = (log_gamma(x + h) - log_gamma(x - h)) / (2 * h)
            assert abs(digamma(x) - fd) <= 1e-6 * abs(fd)

        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(20):
            s = random_block_stats(rng)
            alpha, beta = rng.uniform(0.3, 4.0, size=2)
            for which, (xs, ms) in [("diagonal", s.diagonal_counts()),
                                    ("offdiagonal", s.offdiagonal_counts())]:
                got = marginal_loglik(s, alpha, beta, which)
                want = quad_marginal_loglik(xs, ms, alpha, beta)
                worst = max(worst, abs(got - want))
                assert abs(got - want) <= 1e-8

        hh = 1e-5
        for _ in range(8):
            s = random_block_stats(rng)
            alpha, beta = rng.uniform(0.4, 3.0, size=2)
            for which in ("diagonal", "offdiagonal"):
                da, db = loglik_gradient(s, alpha, beta, which)
                fa = (marginal_loglik(s, alpha + hh, beta, which)
                      - marginal_loglik(s, alpha - hh, beta, which)) / (2 * hh)
                fb = (marginal_loglik(s, alpha, beta + hh, which)
                      - marginal_loglik(s, alpha, beta - hh, which)) / (2 * hh)
                assert abs(da - fa) <= 1e-4 * max(abs(fa), 1e-8)
                assert abs(db - fb) <= 1e-4 * max(abs(fb), 1e-8)
        elapsed = time.perf_counter() - t0
        info["worst_quad_gap"] = f"{worst:.2e} "
        assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s, budget 10s"


def test_criterion_2_hyperparameter_mle_beats_grid():
    with criterion(2, "hyperparameter MLE vs log-grid oracle") as info:
        t0 = time.perf_counter()
        rng = np.random.default_rng(202)
        worst = -np.inf
        for i in range(20):
            s = random_block_stats(rng, k_max=5, n_max=80)
            hp = fit_hyperparams(s)
            for which, (a, b) in [("diagonal", (hp.alpha0, hp.beta0)),
                                  ("offdiagonal", (hp.alpha1, hp.beta1))]:
                xs, ms = (s.diagonal_counts() if which == "diagonal"
                          else s.offdiagonal_counts())
                if not np.any(ms > 0):
                    continue
                grid_best, _ = grid_search_max_marginal(
                    xs, ms, HYPER_BOX_LOWER, HYPER_BOX_UPPER, num=100)
                got = marginal_loglik(s, a, b, which)
                gap = grid_best - got
                worst = max(worst, gap)
                assert got >= grid_best - 1e-3
        elapsed = time.perf_counter() - t0
        info["worst_gap_vs_grid"] = f"{worst:.2e} "
        assert elapsed < 30.0, f"criterion 2 took {elapsed:.1f}s, budget 30s"


def test_criterion_3_eb_identity_and_limits():
    with criterion(3, "EB convex identity and shrinkage limits"):
        rng = np.random.default_rng(303)
        for _ in range(20):
            s = random_block_stats(rng)
            hp = HyperParams(*rng.uniform(0.2, 10.0, size=4))
            est = eb_estimate(s, hp)
            mle = mle_estimate(s)
            diagm = np.eye(s.K, dtype=bool)
            prior = np.where(diagm, hp.alpha0 / (hp.alpha0 + hp.beta0),
                             hp.alpha1 / (hp.alpha1 + hp.beta1))
            ok = s.pair_counts > 0
            combo = est.shrinkage * prior + (1 - est.shrinkage) * mle.theta
            assert np.max(np.abs(est.theta[ok] - combo[ok])) <= 1e-12

            tiny = eb_estimate(s, HyperParams(1e-12, 1e-12, 1e-12, 1e-12))
            assert np.max(np.abs(tiny.theta[ok] - mle.theta[ok])) <= 1e-6

            big = eb_estimate(s, HyperParams(0.35e12, 0.65e12, 0.2e12, 0.8e12))
            pooled = np.where(diagm, 0.35, 0.2)
            assert np.max(np.abs(big.theta - pooled)) <= 1e-6


def test_criterion_4_model1_desk_reproduction():
    with criterion(4, "dense block-model reproduction (n=200, K*=10)") as info:
        t0 = time.perf_counter()
        cfg = ExperimentConfig(model="sbm-affiliation", n=200, k_star=10, lam=0.9,
                               epsilon=0.1, rho=1.0, k_range=tuple(range(8, 13)),
                               replicates=20, base_seed=1000, workers=_WORKERS,
                               write_replicates=False)
        res = run_experiment(cfg)
        assert not res.skipped
        row10 = [r for r in res.summary_rows if r["K"] == 10][0]
        ratio = row10["median_ratio_eb_mle"]
        assert ratio < 0.5, f"median EB/MLE ratio at K=K* is {ratio:.3f}, need < 0.5"
        eb_row = [r for r in res.selection_rows if r["criterion"] == "EB"][0]
        frac = eb_row["frequencies"].get(10, 0) / cfg.replicates
        assert frac >= 0.9, f"EB selected K=10 in {frac:.0%} of replicates, need >= 90%"
        elapsed = time.perf_counter() - t0
        info["ratio_at_Kstar"] = f"{ratio:.4f}"
        info["frac_Khat_10"] = f" {frac:.2f} "
        assert elapsed < 300.0, f"criterion 4 took {elapsed:.1f}s, budget 300s"


def test_criterion_5_model2_sparse_trend():
    with criterion(5, "sparse block-model trend (rho=0.2, n=400)") as info:
        t0 = time.perf_counter()
        cfg = ExperimentConfig(model="sbm-affiliation", n=400, k_star=10, lam=0.9,
                               epsilon=0.1, rho=0.2, k_range=tuple(range(5, 16)),
                               replicates=20, base_seed=2000, workers=_WORKERS,
                               write_replicates=False)
        res = run_experiment(cfg)
        assert not res.skipped
        ratios = {r["K"]: r["median_ratio_eb_mle"] for r in res.summary_rows}
        for K in range(5, 16):
            assert ratios[K] <= 1.0, f"median ratio at K={K} is {ratios[K]:.4f} > 1"
        assert ratios[15] < 0.95, f"median ratio at K=15 is {ratios[15]:.4f}, need < 0.95"
        elapsed = time.perf_counter() - t0
        info["ratio_K15"] = f"{ratios[15]:.4f} "
        assert elapsed < 300.0, f"criterion 5 took {elapsed:.1f}s, budget 300s"


def test_criterion_6_graphon_desk_reproduction():
    with criterion(6, "graphon reproduction (rho=0.1, lam=2, n=100)") as info:
        t0 = time.perf_counter()
        truth = powerlaw_graphon(rho=0.1, lam=2.0)
        cfg = ExperimentConfig(model="graphon-powerlaw", n=100, rho=0.1, lam=2.0,
                               k_range=tuple(range(2, 11)), replicates=20,
                               base_seed=3000, workers=1, write_replicates=False)
        # grid for the independent quadrature oracle, built once
        grid = 2000
        mids = (np.arange(grid) + 0.5) / grid
        w_grid = truth.w(mids[:, None], mids[None, :])

        ratios_by_k = {K: [] for K in cfg.k_range}
        worst_gap = 0.0
        for r in range(cfg.replicates):
            graph, truth_dict, _ = _simulate_replicate(cfg, r)
            records, _, estimates = analyze_graph(
                graph, cfg.k_range, cfg.base_seed + r, truth=truth_dict,
                replicate=r, vem_max_iter=cfg.vem_max_iter, vem_tol=cfg.vem_tol)
            for rec in records:
                if rec.mse_mle > 0:
                    ratios_by_k[rec.K_input].append(rec.mse_eb / rec.mse_mle)
            for ent in estimates:
                for method in ("mle", "eb", "vbem"):
                    step, _ = reorder_identifiable(
                        build_step_graphon(ent["partition"], ent[method]))
                    exact = mse_graphon(step, truth)
                    idx = np.asarray(bin_index(mids, step.boundaries)) - 1
                    quad = float(np.mean((w_grid - step.theta[np.ix_(idx, idx)]) ** 2))
                    gap = abs(exact - quad)
                    worst_gap = max(worst_gap, gap)
                    assert gap <= 1e-4, f"closed form vs grid quadrature gap {gap:.2e}"
        for K, vals in ratios_by_k.items():
            med = float(np.median(vals))
            assert med <= 1.05, f"median ratio at K={K} is {med:.4f} > 1.05"
            if K >= 5:
                assert med < 1.0, f"median ratio at K={K} is {med:.4f}, need < 1"
        elapsed = time.perf_counter() - t0
        info["worst_quad_gap"] = f"{worst_gap:.2e} "
        assert elapsed < 300.0, f"criterion 6 took {elapsed:.1f}s, budget 300s"


def test_criterion_7_selection_metric_plumbing():
    with criterion(7, "model-selection metric plumbing"):
        e_star, e_tilde = deviation_metrics([10] * 100, 10, [10] * 100)
        assert e_star == 0.0 and e_tilde == 0.0
        # literal risk is blind to the shape of equal-K partitions
        n = 12
        same_k = [
            Partition.from_labels([1] * 4 + [2] * 4 + [3] * 4),
            Partition.from_labels([1] * 1 + [2] * 2 + [3] * 9),
            Partition.from_labels([1] * 6 + [2] * 5 + [3] * 1),
        ]
        vals = {cvrp_score(p, n, mode="literal") for p in same_k}
        assert len(vals) == 1
        assert vals.pop() == pytest.approx(-3.0, abs=1e-12)


def test_criterion_8_real_data_protocol():
    with criterion(8, "annotated-network likelihood protocol") as info:
        t0 = time.perf_counter()
        eucore_edges = os.environ.get("EBSBM_EUCORE_EDGES")
        eucore_labels = os.environ.get("EBSBM_EUCORE_LABELS")
        blogs_edges = os.environ.get("EBSBM_BLOGS_EDGES")
        blogs_labels = os.environ.get("EBSBM_BLOGS_LABELS")
        if eucore_edges and eucore_labels:
            graph, part, _, report = ingest_network(eucore_edges, eucore_labels)
            assert report["n"] == 1005, f"expected 1005 nodes, got {report['n']}"
            assert report["k_labels"] == 42, f"expected 42 labels, got {report['k_labels']}"
            info["dataset"] = "eucore "
        elif blogs_edges and blogs_labels:
            graph, part, _, report = ingest_network(blogs_edges, blogs_labels)
            assert report["n"] == 196
            assert report["edges"] == 2864
            assert report["k_labels"] == 11
            info["dataset"] = "blogs "
        else:
            graph, part, _, report = ingest_network(
                bundled_data_path("synthetic_edges.txt"),
                bundled_data_path("synthetic_labels.txt"))
            assert report["n"] == 200 and report["edges"] == 2363
            assert report["k_labels"] == 10
            info["dataset"] = "bundled-synthetic "
        res = run_testlik_protocol(graph, part, n_splits=100, fraction=0.7, base_seed=0)
        med = {k: float(np.median(v)) for k, v in res.items()}
        assert med["EB"] >= med["MLE"], f"median EB {med['EB']:.2f} < MLE {med['MLE']:.2f}"
        assert med["EB"] >= med["fixed-prior"], \
            f"median EB {med['EB']:.2f} < fixed-prior {med['fixed-prior']:.2f}"
        elapsed = time.perf_counter() - t0
        info["median_gain_vs_mle"] = f"{med['EB'] - med['MLE']:.2f} "
        assert elapsed < 600.0, f"criterion 8 took {elapsed:.1f}s, budget 600s"


def test_criterion_9_manifest_determinism(tmp_path):
    with criterion(9, "manifest-driven byte determinism"):
        import json

        cfg = ExperimentConfig(model="sbm-affiliation", n=60, k_star=3, lam=0.8,
                               epsilon=0.1, rho=1.0, k_range=(2, 3, 4),
                               replicates=3, base_seed=77, workers=1)
        first = tmp_path / "first"
        run_experiment(cfg, out_dir=str(first))
        manifest = json.loads((first / "manifest.json").read_text())
        cfg_back = ExperimentConfig.from_json_dict(manifest["config"])
        second = tmp_path / "second"
        run_experiment(cfg_back, out_dir=str(second))
        assert (first / "records.jsonl").read_bytes() == (second / "records.jsonl").read_bytes()
        assert (first / "manifest.json").read_bytes() == (second / "manifest.json").read_bytes()
