import hashlib
import json
import os

import numpy as np
import pytest

from ebsbm.cli import main
from ebsbm.experiment import ExperimentConfig, _simulate_replicate, analyze_graph
from ebsbm.graph import Graph
from ebsbm.io import bundled_data_path, write_edge_list
from helpers import two_cliques_graph


def cliques_file(tmp_path, size=10):
    n, edges, _ = two_cliques_graph(size)
    path = tmp_path / "cliques.txt"
    write_edge_list(Graph(n=n, edges=frozenset(edges)), path)
    return path


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["select"])
        assert exc.value.code == 1

    def test_missing_file_is_2(self, tmp_path, capsys):
        rc = main(["select", "--graph", str(tmp_path / "nope.txt"), "--k-range", "1..2"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_bad_k_range_is_2(self, tmp_path, capsys):
        path = cliques_file(tmp_path)
        rc = main(["select", "--graph", str(path), "--k-range", "0..2"])
        assert rc == 2

    @pytest.mark.parametrize("text", ["1,3..6", "2..4,6", "3..", "a"])
    def test_unparsable_k_range_is_2(self, tmp_path, capsys, text):
        # each once exited 2 with int()'s "invalid literal for int()"
        path = cliques_file(tmp_path)
        rc = main(["select", "--graph", str(path), "--k-range", text])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"--k-range {text!r} is not LO..HI, a comma list such as 2,4,8, or one K" in err
        assert "invalid literal" not in err

    @pytest.mark.parametrize("command", ["estimate", "select", "evaluate", "experiment"])
    def test_empty_k_range_is_2(self, tmp_path, capsys, command):
        path = cliques_file(tmp_path)
        labels = tmp_path / "labels.txt"
        labels.write_text("".join(f"{i} {1 + i // 10}\n" for i in range(20)))
        out = tmp_path / "out"
        argv = [command, "--graph", str(path), "--k-range", "5..3", "--out", str(out)]
        if command == "evaluate":
            argv += ["--labels", str(labels), "--splits", "1"]
        assert main(argv) == 2
        assert "k_range must be nonempty" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("command", ["estimate", "select", "evaluate", "experiment"])
    def test_repeated_k_is_2(self, tmp_path, capsys, command):
        # experiment once ran K=2 twice per replicate and counted it twice
        path = cliques_file(tmp_path)
        labels = tmp_path / "labels.txt"
        labels.write_text("".join(f"{i} {1 + i // 10}\n" for i in range(20)))
        out = tmp_path / "out"
        argv = [command, "--graph", str(path), "--k-range", "2,2", "--out", str(out)]
        if command == "evaluate":
            argv += ["--labels", str(labels), "--splits", "1"]
        if command == "experiment":
            argv += ["--replicates", "2", "--workers", "1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "k_range must not repeat a K" in captured.err
        assert captured.out == ""
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--lambda", "2"], "need 0 <= epsilon < lam <= 1"),
        (["--n", "0"], "n must be >= 1"),
        (["--model", "graphon-powerlaw", "--rho", "0.5", "--lambda", "3"],
         "rho * lam^2 must not exceed 1"),
    ])
    def test_invalid_model_is_2(self, tmp_path, capsys, flags, message):
        # each once skipped every replicate and exited 2 without the reason
        rc = main(["experiment", "--k-range", "2..3", "--replicates", "2", "--workers", "1",
                   "--out", str(tmp_path / "exp")] + flags)
        assert rc == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "k_hats" not in captured.out
        assert not (tmp_path / "exp" / "manifest.json").exists()

    def test_zero_splits_is_2(self, tmp_path, capsys):
        # zero splits once printed nan medians and exited 0; the K sweep
        # must not run first
        rc = main(["evaluate", "--graph", str(bundled_data_path("synthetic_edges.txt")),
                   "--labels", str(bundled_data_path("synthetic_labels.txt")),
                   "--k-range", "2..3", "--splits", "0", "--out", str(tmp_path / "ev")])
        assert rc == 2
        captured = capsys.readouterr()
        assert "n_splits must be >= 1" in captured.err
        assert "mse_eb/mse_mle" not in captured.out
        assert not (tmp_path / "ev" / "evaluation.json").exists()

    @pytest.mark.parametrize("fraction, side", [("0.001", "no train"), ("0.999", "no test")])
    def test_split_with_an_empty_side_is_2(self, tmp_path, capsys, fraction, side):
        # 0.001 once failed in induced_subgraph ("need at least one node"),
        # and 0.999 scored every method 0.0 on no test node and exited 0
        rc = main(["evaluate", "--graph", str(bundled_data_path("synthetic_edges.txt")),
                   "--labels", str(bundled_data_path("synthetic_labels.txt")),
                   "--fraction", fraction, "--splits", "1", "--out", str(tmp_path / "ev")])
        assert rc == 2
        assert f"fraction={fraction} of n=200 nodes leaves {side} node" in capsys.readouterr().err
        assert not (tmp_path / "ev" / "evaluation.json").exists()

    def test_experiment_labels_without_graph_is_2(self, tmp_path, capsys):
        # the labels of a simulated experiment were once ignored
        rc = main(["experiment", "--n", "30", "--k-star", "2", "--k-range", "1..2",
                   "--replicates", "1", "--workers", "1",
                   "--labels", str(bundled_data_path("synthetic_labels.txt")),
                   "--out", str(tmp_path / "exp")])
        assert rc == 2
        assert "need model 'file'" in capsys.readouterr().err
        assert not (tmp_path / "exp" / "manifest.json").exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("experiment", "--workers", "-3"),
        ("select", "--vem-max-iter", "-5"),
        ("select", "--vem-max-iter", "0"),
        ("select", "--vem-tol", "-1"),
    ])
    def test_ignored_setting_is_2(self, tmp_path, capsys, command, flag, value):
        # each once ran as if valid and exited 0
        argv = [command, "--k-range", "3..4", flag, value]
        if command == "experiment":
            argv += ["--n", "30", "--k-star", "2", "--replicates", "1",
                     "--out", str(tmp_path / "exp")]
        else:
            argv += ["--graph", str(bundled_data_path("synthetic_edges.txt"))]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "must be >=" in captured.err
        assert "K_hat" not in captured.out
        assert not (tmp_path / "exp" / "manifest.json").exists()

    def test_experiment_criterion_is_usage_error(self, tmp_path, capsys):
        # experiment always reports both criteria; the option selected nothing
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--k-range", "1..2", "--criterion", "EB",
                  "--out", str(tmp_path / "exp")])
        assert exc.value.code == 1

    def test_numerical_failure_is_3(self, tmp_path, capsys, monkeypatch):
        import ebsbm.cli as cli_mod
        from ebsbm.errors import NumericalError

        def boom(path):
            raise NumericalError("synthetic blow-up")

        monkeypatch.setattr(cli_mod, "read_edge_list", boom)
        path = cliques_file(tmp_path)
        rc = main(["select", "--graph", str(path), "--k-range", "1..2"])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err


class TestSelect:
    def test_two_cliques_khat_2(self, tmp_path, capsys):
        path = cliques_file(tmp_path)
        out = tmp_path / "sel"
        rc = main(["select", "--graph", str(path), "--k-range", "1..4",
                   "--seed", "0", "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "K_hat 2" in stdout
        lines = (out / "scores.csv").read_text().strip().splitlines()
        assert len(lines) == 5

    def test_single_k(self, tmp_path, capsys):
        path = cliques_file(tmp_path)
        rc = main(["select", "--graph", str(path), "--k-range", "3", "--seed", "1"])
        assert rc == 0
        assert "K_hat" in capsys.readouterr().out

    def test_bundled_scores_bytes_pinned(self, tmp_path, capsys):
        # sha256 of the score table over K 2..6 on the bundled network
        out = tmp_path / "sel"
        rc = main(["select", "--graph", bundled_data_path("synthetic_edges.txt"),
                   "--k-range", "2..6", "--seed", "3", "--out", str(out)])
        assert rc == 0
        digest = hashlib.sha256((out / "scores.csv").read_bytes()).hexdigest()
        assert digest == "e8dd2eb5e240e800a70c5dfa59ca140ae9d76e149ccb01cde740fde7a454054e"


class TestEstimate:
    def test_writes_per_k_json(self, tmp_path):
        path = cliques_file(tmp_path)
        out = tmp_path / "est"
        rc = main(["estimate", "--graph", str(path), "--k-range", "1..3",
                   "--seed", "0", "--out", str(out)])
        assert rc == 0
        files = sorted(os.listdir(out))
        assert "estimate_K01.json" in files and "estimate_K03.json" in files
        doc = json.loads((out / "estimate_K02.json").read_text())
        eb = np.array(doc["estimates"]["eb"]["theta"]).reshape(2, 2)
        assert eb[0, 0] > 0.9 and eb[1, 1] > 0.9
        assert doc["step_graphon"]["boundaries"][0] == 0.0
        assert (out / "partition_K02.txt").exists()

    def test_k_above_200_on_a_larger_graph(self, tmp_path):
        # the config carrying the detection flags bounds K by the graph's
        # node count, not by the default n = 200
        path = cliques_file(tmp_path, size=101)
        rc = main(["estimate", "--graph", str(path), "--k-range", "201",
                   "--vem-max-iter", "1", "--out", str(tmp_path / "est")])
        assert rc == 0
        assert (tmp_path / "est" / "estimate_K201.json").exists()

    def test_bundled_output_bytes_pinned(self, tmp_path, capsys):
        # sha256 of every file, computed before estimate ran through
        # analyze_graph (K05 and K06 since VEM multiplies by a sparse
        # adjacency, K03 to K05 since VEM's 128-node blocks and segmented
        # sums, each of which moves the VBEM theta's last digits; K02 since
        # VEM stops on its gain per node, one sweep sooner; the manifest
        # since it records --vem-max-iter and --vem-tol); the manifest's
        # absolute graph path is masked
        graph = bundled_data_path("synthetic_edges.txt")
        out = tmp_path / "est"
        rc = main(["estimate", "--graph", graph, "--k-range", "2..6", "--seed", "3",
                   "--out", str(out)])
        assert rc == 0
        pinned = {
            "estimate_K02.json": "10c595f4b3d3d9b0beace6fd85be94ed48f9a6c816b674a714b12bd64f985ac7",
            "estimate_K03.json": "5de93a39e65ef96c475c2dddfdd736a3ef07365b0b7f3596fcc229dd32aeb519",
            "estimate_K04.json": "4ea6663a6ba529186d93e6151cf5f3604bf4b439b0a68df6e3cb1b36e3150bc6",
            "estimate_K05.json": "2b3ca8ab01647f950cbd1362588d132930780c063411dd145ffde94c27984b5e",
            "estimate_K06.json": "4a9fdc526a215f74de4414f628a93d614783c1ce81cb638b5b787168b69b1196",
            "manifest.json": "5992f8355089fb8a510d261e788666fa5556029eb32aca3a6d61b6cdd802ebee",
            "partition_K02.txt": "7e0fca3bb69293666c74f30b44384cb86643125b1e6b09fa76b18538ee2750f6",
            "partition_K03.txt": "8d0b9483c45a23de998c40ea68131b09a5d242567a3820e1b57da81702d168d9",
            "partition_K04.txt": "42280d8e14b0337bcfce4f38b0955a34fb9a37bbb92aa9db98646cd4f43ef2a4",
            "partition_K05.txt": "b2805792f09682f666538742c992f7978ccd9ac8356e344d82bae62a636a72b3",
            "partition_K06.txt": "72c97544b1b50145c3a1dc09dedb8d198f341e0c3ca1ca81d02043684254d4bd",
        }
        masked = json.dumps(os.path.abspath(graph)).encode()
        digests = {}
        for name in sorted(os.listdir(out)):
            data = (out / name).read_bytes()
            if name == "manifest.json":
                assert masked in data
                data = data.replace(masked, b'"GRAPH"')
            digests[name] = hashlib.sha256(data).hexdigest()
        assert digests == pinned

    def test_missing_graph_is_2(self, tmp_path):
        rc = main(["estimate", "--graph", str(tmp_path / "x.txt"),
                   "--k-range", "1..2", "--out", str(tmp_path / "o")])
        assert rc == 2


class TestSimulateAndExperiment:
    def test_simulate_writes_replicates(self, tmp_path):
        out = tmp_path / "sim"
        rc = main(["simulate", "--model", "sbm-affiliation", "--n", "40",
                   "--k-star", "2", "--lambda", "0.8", "--epsilon", "0.1",
                   "--replicates", "2", "--seed", "5", "--out", str(out)])
        assert rc == 0
        assert (out / "replicates" / "r000" / "graph.txt").exists()
        assert (out / "replicates" / "r001" / "labels.txt").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seeds"] == [5, 6]

    def test_simulate_deterministic(self, tmp_path):
        args = ["simulate", "--model", "graphon-powerlaw", "--n", "30", "--rho", "0.2",
                "--lambda", "2", "--replicates", "1", "--seed", "9"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "replicates" / "r000" / "graph.txt").read_bytes()
        b = (tmp_path / "b" / "replicates" / "r000" / "graph.txt").read_bytes()
        assert a == b

    def test_experiment_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "exp"
        rc = main(["experiment", "--model", "sbm-affiliation", "--n", "50",
                   "--k-star", "2", "--lambda", "0.8", "--epsilon", "0.1",
                   "--k-range", "1..3", "--replicates", "2", "--seed", "0",
                   "--workers", "1", "--out", str(out)])
        assert rc == 0
        assert (out / "records.jsonl").exists()
        assert (out / "summary.csv").exists()
        assert "k_hats" in capsys.readouterr().out

    @pytest.mark.parametrize("failing, rc_expected", [({0, 1}, 2), ({1}, 0)])
    def test_experiment_exit_code_with_failed_replicates(self, tmp_path, capsys, monkeypatch,
                                                         failing, rc_expected):
        # every replicate failing is an error; a partial failure is counted only
        import ebsbm.experiment as mod

        real = mod._run_one

        def flaky(cfg, r, loaded=None):
            if r in failing:
                raise RuntimeError("synthetic failure")
            return real(cfg, r, loaded=loaded)

        monkeypatch.setattr(mod, "_run_one", flaky)
        rc = main(["experiment", "--n", "30", "--k-star", "2", "--k-range", "1..2",
                   "--replicates", "2", "--workers", "1", "--out", str(tmp_path / "exp")])
        assert rc == rc_expected
        err = capsys.readouterr().err
        assert f"skipped {len(failing)} replicate(s)" in err
        for r in (0, 1):
            assert (f"replicate {r}: RuntimeError: synthetic failure" in err) == (r in failing)

    def test_experiment_file_k_above_the_graph_is_2(self, tmp_path, capsys):
        # one error before any replicate, not one skip per replicate
        out = tmp_path / "exp"
        rc = main(["experiment", "--graph", str(bundled_data_path("synthetic_edges.txt")),
                   "--k-range", "2,300", "--replicates", "2", "--workers", "1",
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "ebsbm: error: K=300 exceeds node count 200\n"
        assert not (out / "manifest.json").exists()

    def test_experiment_composes_from_simulate_estimate_select(self, tmp_path, capsys):
        # one replicate, same seeds: the pipeline equals its parts
        common = ["--model", "sbm-affiliation", "--n", "50", "--k-star", "2",
                  "--lambda", "0.8", "--epsilon", "0.1", "--seed", "11"]
        exp_out = tmp_path / "exp"
        rc = main(["experiment", *common, "--k-range", "1..3", "--replicates", "1",
                   "--workers", "1", "--out", str(exp_out)])
        assert rc == 0
        exp_stdout = capsys.readouterr().out
        sim_out = tmp_path / "sim"
        rc = main(["simulate", *common, "--replicates", "1", "--out", str(sim_out)])
        assert rc == 0
        g_exp = (exp_out / "replicates" / "r000" / "graph.txt").read_bytes()
        g_sim = (sim_out / "replicates" / "r000" / "graph.txt").read_bytes()
        assert g_exp == g_sim
        graph_file = str(sim_out / "replicates" / "r000" / "graph.txt")
        est_out = tmp_path / "est"
        rc = main(["estimate", "--graph", graph_file, "--k-range", "1..3",
                   "--seed", "11", "--out", str(est_out)])
        assert rc == 0
        recs = {r["K_input"]: r for r in map(json.loads, (exp_out / "records.jsonl")
                                              .read_text().splitlines())}
        # the experiment's own analysis of its replicate, for the estimates
        # records.jsonl does not carry
        cfg = ExperimentConfig.from_json_dict(
            json.loads((exp_out / "manifest.json").read_text())["config"])
        graph, truth, _ = _simulate_replicate(cfg, 0)
        _, _, exp_estimates = analyze_graph(graph, cfg.k_range, 11, truth=truth,
                                            vem_max_iter=cfg.vem_max_iter, vem_tol=cfg.vem_tol)
        assert [e["K"] for e in exp_estimates] == [1, 2, 3] == sorted(recs)
        for est in exp_estimates:
            K = est["K"]
            doc = json.loads((est_out / f"estimate_K{K:02d}.json").read_text())
            # both routes must agree exactly, K by K
            assert doc["K_returned"] == recs[K]["K_returned"] == est["partition"].K
            assert doc["estimates"]["eb"]["hyper"] == recs[K]["scores"][0]["hyper"]
            for m in ("mle", "eb", "vbem"):
                assert doc["estimates"][m]["theta"] == est[m].theta.ravel().tolist()
            labels = (est_out / f"partition_K{K:02d}.txt").read_text().split()[1::2]
            assert labels == [str(v) for v in est["partition"].labels]
        capsys.readouterr()
        rc = main(["select", "--graph", graph_file, "--k-range", "1..3",
                   "--seed", "11"])
        assert rc == 0
        sel_stdout = capsys.readouterr().out
        k_hat_sel = int(sel_stdout.strip().splitlines()[-1].split()[-1])
        exp_freq = json.loads((exp_out / "manifest.json").read_text())
        # experiment's EB selection printed as k_hats={K: count}
        assert f"k_hats={{{k_hat_sel}: 1}}" in exp_stdout


class TestEvaluateAndIngest:
    def test_ingest_bundled(self, tmp_path, capsys):
        out = tmp_path / "ing"
        rc = main(["ingest", "--graph", str(bundled_data_path("synthetic_edges.txt")),
                   "--labels", str(bundled_data_path("synthetic_labels.txt")),
                   "--out", str(out)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert report["n"] == 200 and report["edges"] == 2363
        assert report["k_labels"] == 10
        assert (out / "edges.txt").exists() and (out / "labels.txt").exists()

    def test_evaluate_bundled_quick(self, tmp_path, capsys):
        out = tmp_path / "ev"
        rc = main(["evaluate", "--graph", str(bundled_data_path("synthetic_edges.txt")),
                   "--labels", str(bundled_data_path("synthetic_labels.txt")),
                   "--splits", "5", "--seed", "0", "--out", str(out)])
        assert rc == 0
        blob = json.loads((out / "evaluation.json").read_text())
        assert len(blob["test_loglik"]["EB"]) == 5
        assert json.loads((out / "manifest.json").read_text())["k_range"] is None
        stdout = capsys.readouterr().out
        assert "median test loglik EB" in stdout

    @pytest.mark.parametrize("command", ["estimate", "select", "evaluate"])
    def test_manifest_records_detection_flags(self, tmp_path, capsys, command):
        # a run with non-default detection flags must be rerunnable from
        # its manifest
        out = tmp_path / "out"
        argv = [command, "--graph", str(bundled_data_path("synthetic_edges.txt")),
                "--k-range", "2,4", "--seed", "7", "--vem-max-iter", "40",
                "--vem-tol", "0.01", "--out", str(out)]
        if command == "evaluate":
            argv += ["--labels", str(bundled_data_path("synthetic_labels.txt")), "--splits", "2"]
        assert main(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert {key: manifest[key] for key in ("k_range", "seed", "vem_max_iter", "vem_tol")} \
            == {"k_range": [2, 4], "seed": 7, "vem_max_iter": 40, "vem_tol": 0.01}

    def test_env_var_output_root(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("EBSBM_OUTPUT_ROOT", str(tmp_path / "root"))
        path = cliques_file(tmp_path)
        rc = main(["estimate", "--graph", str(path), "--k-range", "2"])
        assert rc == 0
        assert (tmp_path / "root" / "estimate" / "estimate_K02.json").exists()


@pytest.mark.skipif("EBSBM_EUCORE_EDGES" not in os.environ,
                    reason="set EBSBM_EUCORE_EDGES to run the email-network selection band")
def test_select_email_network_band(capsys):
    rc = main(["select", "--graph", os.environ["EBSBM_EUCORE_EDGES"],
               "--k-range", "30..50", "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    k_hat = int(out.strip().splitlines()[-1].split()[-1])
    assert 35 <= k_hat <= 45
