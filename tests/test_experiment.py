import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

import ebsbm
from ebsbm import community, experiment
from ebsbm.community import detect_range
from ebsbm.experiment import (
    ExperimentConfig,
    analyze_graph,
    run_experiment,
    run_testlik_protocol,
    simulate,
    _simulate_replicate,
    _write_sidecars,
)
from ebsbm.graph import Graph, Partition
from ebsbm.io import bundled_data_path, ingest_network, write_label_file
from ebsbm.samplers import affiliation_theta, powerlaw_graphon, sample_graphon, sample_sbm
from helpers import two_cliques_graph


def small_cfg(**over):
    base = dict(model="sbm-affiliation", n=60, k_star=3, lam=0.8, epsilon=0.1,
                rho=1.0, k_range=(2, 3, 4), replicates=2, base_seed=100,
                workers=1, write_replicates=True)
    base.update(over)
    return ExperimentConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            small_cfg(k_range=())
        with pytest.raises(ValueError):
            small_cfg(replicates=0)
        # each once ran as if valid: workers < 1 serially, vem_max_iter < 1
        # with no EM sweep and a negative vem_tol up to the sweep cap
        for bad in ({"workers": 0}, {"workers": -3}, {"vem_max_iter": 0},
                    {"vem_max_iter": -5}, {"vem_tol": -1.0}, {"vem_tol": float("nan")}):
            with pytest.raises(ValueError, match=f"{next(iter(bad))} must be"):
                small_cfg(**bad)
        with pytest.raises(ValueError):
            small_cfg(model="nope")
        with pytest.raises(ValueError):
            ExperimentConfig(model="file")
        # a simulated model has no use for input files
        with pytest.raises(ValueError, match="need model 'file'"):
            small_cfg(label_file="labels.txt")
        with pytest.raises(ValueError, match="need model 'file'"):
            small_cfg(graph_file="graph.txt")

    @pytest.mark.parametrize("bad, message", [
        ({"lam": 2.0}, "need 0 <= epsilon < lam <= 1"),
        ({"n": 0}, "n must be >= 1"),
        ({"model": "graphon-powerlaw", "rho": 0.5, "lam": 3.0},
         "rho \\* lam\\^2 must not exceed 1"),
        ({"k_range": (2, 2)}, "must not repeat a K"),
    ])
    def test_rejected_before_any_replicate(self, bad, message):
        # each once skipped every replicate (or, for a repeated K, wrote its
        # records twice) instead of failing
        with pytest.raises(ValueError, match=message):
            small_cfg(**bad)

    def test_no_criterion_field(self):
        # every run reports both criteria, so no field selects one
        assert "criterion" not in {f.name for f in fields(ExperimentConfig)}
        with pytest.raises(TypeError):
            ExperimentConfig.from_json_dict({**small_cfg().to_json_dict(), "criterion": "EB"})

    def test_json_roundtrip(self):
        cfg = small_cfg()
        back = ExperimentConfig.from_json_dict(json.loads(json.dumps(cfg.to_json_dict())))
        assert back == cfg


class TestSimulate:
    def test_truth_restriction_consistent(self):
        cfg = small_cfg()
        g, truth, side = _simulate_replicate(cfg, 0)
        assert truth["kind"] == "sbm"
        assert truth["partition"].n == g.n
        assert truth["theta"].shape == (truth["partition"].K, truth["partition"].K)

    def test_label_sidecar_keeps_raw_labels(self, tmp_path):
        # twelve nodes over ten clusters leave some label unused; the sidecar
        # keeps the raw labels, one "node label" line each
        cfg = small_cfg(n=12, k_star=10)
        _, _, side = _simulate_replicate(cfg, 0)
        raw = side["labels"]
        assert np.setdiff1d(np.arange(1, raw.max() + 1), raw).size > 0
        _write_sidecars(side, tmp_path, 0)
        got = (tmp_path / "replicates" / "r000" / "labels.txt").read_bytes()
        assert got == "".join(f"{i} {lab}\n" for i, lab in enumerate(raw.tolist())).encode()
        write_label_file(raw, tmp_path / "direct.txt")
        assert (tmp_path / "direct.txt").read_bytes() == got

    def test_latent_sidecar_is_numbers(self, tmp_path):
        # one "node latent" line each, the float written in its shortest
        # round-trip form so that parsing gives back the sampler's u exactly
        cfg = small_cfg(model="graphon-powerlaw", rho=0.1, lam=2.0, k_range=(2,), replicates=1)
        run_experiment(cfg, out_dir=str(tmp_path))
        lines = (tmp_path / "replicates" / "r000" / "latents.txt").read_text().splitlines()
        nodes, latents = zip(*(line.split(" ") for line in lines))
        _, u = sample_graphon(powerlaw_graphon(0.1, 2.0), cfg.n, cfg.base_seed)
        assert [int(i) for i in nodes] == list(range(cfg.n))
        assert np.array_equal([float(x) for x in latents], u)

    @pytest.mark.parametrize("over", [{}, {"model": "graphon-powerlaw", "rho": 0.1, "lam": 2.0}],
                             ids=["sbm", "graphon"])
    def test_simulate_writes_sidecars_without_relabelling(self, tmp_path, monkeypatch, over):
        # simulate keeps only the sidecars, so it never puts a graph in
        # canonical order, and it writes the files an experiment run writes
        cfg = small_cfg(**over)
        run_experiment(cfg, out_dir=str(tmp_path / "exp"))

        def unused(*args):
            raise AssertionError("simulate relabelled a graph")

        monkeypatch.setattr(experiment, "canonical_order", unused)
        monkeypatch.setattr(experiment, "relabel_nodes", unused)
        simulate(cfg, str(tmp_path / "sim"))
        for r in range(cfg.replicates):
            exp_dir = tmp_path / "exp" / "replicates" / f"r{r:03d}"
            sim_dir = tmp_path / "sim" / "replicates" / f"r{r:03d}"
            names = sorted(os.listdir(exp_dir))
            assert names == sorted(os.listdir(sim_dir)) and len(names) == 2
            for name in names:
                assert (sim_dir / name).read_bytes() == (exp_dir / name).read_bytes()

    def test_deterministic(self):
        cfg = small_cfg()
        g1, t1, _ = _simulate_replicate(cfg, 1)
        g2, t2, _ = _simulate_replicate(cfg, 1)
        assert np.array_equal(g1.edges, g2.edges)
        assert t1["partition"] == t2["partition"]


class TestRun:
    def test_records_and_files(self, tmp_path):
        cfg = small_cfg()
        out = tmp_path / "exp"
        res = run_experiment(cfg, out_dir=str(out))
        assert len(res.records) == 2 * 3
        assert (out / "manifest.json").exists()
        assert (out / "records.jsonl").exists()
        assert (out / "summary.csv").exists()
        assert (out / "selection.csv").exists()
        assert (out / "replicates" / "r000" / "graph.txt").exists()
        assert (out / "replicates" / "r001" / "labels.txt").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seeds"] == [100, 101]
        assert manifest["skipped"] == []
        for rec in res.records:
            assert rec.mse_eb >= 0 and rec.K_returned <= rec.K_input

    def test_rerun_byte_identical(self, tmp_path):
        cfg = small_cfg()
        a, b = tmp_path / "a", tmp_path / "b"
        run_experiment(cfg, out_dir=str(a))
        run_experiment(cfg, out_dir=str(b))
        assert (a / "records.jsonl").read_bytes() == (b / "records.jsonl").read_bytes()
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
        assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()

    def test_parallel_matches_serial(self, tmp_path):
        cfg = small_cfg()
        a = run_experiment(small_cfg(workers=1), out_dir=str(tmp_path / "s"))
        b = run_experiment(small_cfg(workers=2), out_dir=str(tmp_path / "p"))
        assert (tmp_path / "s" / "records.jsonl").read_bytes() == \
            (tmp_path / "p" / "records.jsonl").read_bytes()

    @staticmethod
    def _records_at_threads(tmp_path, n, rho, k_range):
        # records.jsonl of one replicate (K* = 10, base seed 2000) run in a
        # fresh process under OPENBLAS_NUM_THREADS=1 and =2
        script = (
            "import sys\n"
            "from ebsbm.experiment import ExperimentConfig, run_experiment\n"
            f"cfg = ExperimentConfig(model='sbm-affiliation', n={n}, k_star=10, lam=0.9,\n"
            f"                       epsilon=0.1, rho={rho}, k_range={tuple(k_range)},\n"
            "                       replicates=1, base_seed=2000, workers=1,\n"
            "                       write_replicates=False)\n"
            "run_experiment(cfg, out_dir=sys.argv[1])\n"
        )
        src = os.path.dirname(os.path.dirname(ebsbm.__file__))
        records = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            subprocess.run([sys.executable, "-c", script, str(out)], env=env, check=True,
                           timeout=300)
            records.append((out / "records.jsonl").read_bytes())
        assert records[0].count(b"\n") == len(k_range)
        return records

    def test_records_independent_of_blas_threads(self, tmp_path):
        # one replicate of the criterion-5 configuration; a manifest-driven
        # rerun on a machine with another core count must give the same bytes
        records = self._records_at_threads(tmp_path, 400, 0.2, range(5, 16))
        assert records[0] == records[1]

    def test_wide_k_records_independent_of_blas_threads(self, tmp_path):
        # at K 45 and 50 on 1,000 nodes, VEM's Gram products round otherwise
        # at two OpenBLAS threads than at one: mse_vbem moved in its last
        # digits at both K unless the EM runs at one thread. The digest is
        # the records' at one thread
        records = self._records_at_threads(tmp_path, 1000, 0.2, (45, 50))
        assert records[0] == records[1]
        assert hashlib.sha256(records[0]).hexdigest() == \
            "d161c9836e4a42e0e5d4eed6827392e29842cb6125e13e46e7074b84a3f17af6"

    def test_selection_summary_shape(self):
        res = run_experiment(small_cfg(write_replicates=False))
        crits = {row["criterion"] for row in res.selection_rows}
        assert crits == {"EB", "CVRP"}
        for row in res.selection_rows:
            assert len(row["k_hats"]) == 2
            assert "e_k_tilde" in row and "e_k_star" in row

    def test_failed_replicate_skipped_and_counted(self, tmp_path, monkeypatch):
        # serial and pooled runs share one loop; forked workers see the
        # patched sampler, so both skip replicate 1 alone
        import ebsbm.experiment as mod

        real = mod._simulate_replicate

        def flaky(cfg, r):
            if r == 1:
                raise RuntimeError("synthetic failure")
            return real(cfg, r)

        monkeypatch.setattr(mod, "_simulate_replicate", flaky)
        for workers in (1, 2):
            cfg = small_cfg(replicates=3, workers=workers)
            out = tmp_path / f"workers{workers}"
            res = run_experiment(cfg, out_dir=str(out))
            assert len(res.skipped) == 1
            assert res.skipped[0]["replicate"] == 1
            assert "synthetic failure" in res.skipped[0]["error"]
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["completed"] == [0, 2]
            assert len(manifest["skipped"]) == 1
            # records only for completed replicates
            assert {rec.replicate for rec in res.records} == {0, 2}

    def test_file_model_ingested_once_with_workers(self, tmp_path, monkeypatch):
        # workers get the loaded graph; the file is gone once it is read, so
        # a re-ingest in any worker would skip its replicate
        import ebsbm.experiment as mod

        g, _ = sample_sbm(affiliation_theta(K=2, lam=0.8, epsilon=0.1, rho=1.0), n=40, seed=5)
        path = tmp_path / "g.txt"
        from ebsbm.io import write_edge_list

        write_edge_list(g, path)
        real = mod.ingest_network
        calls = []

        def counted(graph_file, label_file=None):
            calls.append(graph_file)
            loaded = real(graph_file, label_file)
            os.remove(graph_file)
            return loaded

        monkeypatch.setattr(mod, "ingest_network", counted)
        cfg = ExperimentConfig(model="file", graph_file=str(path), k_range=(2, 3),
                               replicates=3, base_seed=0, workers=2,
                               write_replicates=False)
        res = run_experiment(cfg)
        assert res.skipped == []
        assert len(calls) == 1
        assert len(res.records) == 3 * 2

    def test_file_model_without_labels(self, tmp_path):
        spec = affiliation_theta(K=2, lam=0.8, epsilon=0.1, rho=1.0)
        g, _ = sample_sbm(spec, n=40, seed=5)
        from ebsbm.io import write_edge_list

        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        cfg = ExperimentConfig(model="file", graph_file=str(path), k_range=(2, 3),
                               replicates=1, base_seed=0, write_replicates=False)
        res = run_experiment(cfg, out_dir=str(tmp_path / "exp"))
        assert np.isnan(res.records[0].mse_mle)
        assert res.selection_rows[0]["k_hats"]
        # without labels neither deviation applies: both cells are empty
        lines = (tmp_path / "exp" / "selection.csv").read_text().splitlines()
        assert lines[0] == "criterion,k_hat_frequencies,e_k_star,e_k_tilde"
        assert [line.split(",")[2:] for line in lines[1:]] == [["", ""], ["", ""]]


@pytest.mark.parametrize("model, extra, pinned", [
    ("sbm-affiliation", dict(k_star=4, lam=0.8, epsilon=0.1, rho=1.0, base_seed=100), {
        "records.jsonl": "fcfcf965cb01bd0ef27563b47e96b14e24f0dc3212000f5baa73d49ab085ae0e",
        "summary.csv": "c0c6d2690747a923dce04f1b234b633c38200dc7db6970c62be8f6021951fa6d",
        "selection.csv": "4732c8ccfdb2bf54dd892c96b5b1b3691102965969c22a1a10da11e0364ae58b",
    }),
    ("graphon-powerlaw", dict(rho=0.2, lam=2.0, base_seed=200), {
        "records.jsonl": "61df337125b9cd0dd3305a027dc58c5ec7ed00835aee1b8ac0a2389455d892c4",
        "summary.csv": "a84f914fa05971d8527805a6cd6a70ee21931b157ca2b0a8ba60774d3da29382",
        # e_k_star does not apply to a graphon and is an empty cell
        "selection.csv": "0d84bb732f88559fa7161db82b4433c58902794b34aa1a5f6f9a20af82099b29",
    }),
])
def test_experiment_output_bytes_pinned(tmp_path, model, extra, pinned):
    # sha256 of each output table of a three-replicate run over K 2..5
    cfg = ExperimentConfig(model=model, n=150, k_range=(2, 3, 4, 5), replicates=3,
                           workers=1, **extra)
    run_experiment(cfg, out_dir=str(tmp_path))
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in pinned}
    assert digests == pinned


def test_analyze_graph_selects_two_cliques():
    n, edges, labels = two_cliques_graph(10)
    g = Graph(n=n, edges=frozenset(edges))
    truth = {"kind": "sbm",
             "theta": np.array([[1.0, 0.0], [0.0, 1.0]]),
             "partition": Partition.from_labels(labels)}
    records, selection, estimates = analyze_graph(g, (1, 2, 3), seed=0, truth=truth)
    assert selection["EB"] == 2
    by_k = {r.K_input: r for r in records}
    assert by_k[2].mse_eb < 0.01
    assert selection["k_tilde"] == 2


def test_analyze_graph_reads_a_one_shot_k_range():
    # the range is read once, so a generator reaches detection and the
    # records as it would as a tuple
    g = Graph(n=6, edges=[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)])
    records, selection, _ = analyze_graph(g, (k for k in (2, 3)), seed=0)
    assert [rec.K_input for rec in records] == [2, 3]
    want, want_selection, _ = analyze_graph(g, (2, 3), seed=0)
    assert [rec.scores for rec in records] == [rec.scores for rec in want]
    assert selection == want_selection


class TestSharedEigenbasis:
    @pytest.mark.parametrize("k_range, widths", [
        ((7, 2, 12, 1, 5), [12]), ((1,), []), ((1, 5), [5])])
    def test_one_eigensolve_per_graph(self, monkeypatch, k_range, widths):
        spec = affiliation_theta(K=4, lam=0.8, epsilon=0.1, rho=1.0)
        g, _ = sample_sbm(spec, n=60, seed=0)
        # every eigensolve, shared or made inside spectral_partition
        calls = []
        real = community._top_eigvecs

        def counted(graph, K):
            calls.append(K)
            return real(graph, K)

        monkeypatch.setattr(community, "_top_eigvecs", counted)
        records, _, _ = analyze_graph(g, k_range, seed=0)
        assert calls == widths
        assert [rec.K_input for rec in records] == list(k_range)

    def test_dense_range_matches_standalone(self):
        # max(k_range) = n takes the dense eigh solve; its basis serves
        # K = 2 as well, which alone would take ARPACK
        g = Graph(n=6, edges=[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)])
        _, _, estimates = analyze_graph(g, (2, 6), seed=0)
        for est in estimates:
            det, theta_vb = detect_range(g, (est["K"],), seed=0)[0]
            assert est["partition"] == det.partition
            assert np.array_equal(est["vbem"].theta, theta_vb)

    def test_k_above_node_count_still_raises(self):
        g = Graph(n=6, edges=[(0, 1), (1, 2), (0, 2), (3, 4)])
        with pytest.raises(ValueError, match="K=7 exceeds node count 6"):
            analyze_graph(g, (2, 7, 3), seed=0)


def test_testlik_protocol_orders_methods():
    spec = affiliation_theta(K=5, lam=0.7, epsilon=0.08, rho=1.0)
    g, part = sample_sbm(spec, n=150, seed=3)
    out = run_testlik_protocol(g, part, n_splits=20, fraction=0.7, base_seed=0)
    assert set(out) == {"MLE", "EB", "fixed-prior"}
    assert all(len(v) == 20 for v in out.values())
    med = {k: float(np.median(v)) for k, v in out.items()}
    assert med["EB"] >= med["MLE"]
    with pytest.raises(ValueError, match="n_splits"):
        run_testlik_protocol(g, part, n_splits=0)


def test_testlik_protocol_bytes_pinned():
    # sha256 of the sorted-key JSON of 20 splits on the bundled network:
    # every per-split log-likelihood keeps its bits
    g, part, _, _ = ingest_network(bundled_data_path("synthetic_edges.txt"),
                                   bundled_data_path("synthetic_labels.txt"))
    out = run_testlik_protocol(g, part, n_splits=20, fraction=0.7, base_seed=0)
    digest = hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()
    assert digest == "1a44c03825e70f801b2da997462de5371d82f6add6b4c44ffbfcf5c3ac57063b"
