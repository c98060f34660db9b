"""End-to-end experiment harness.

A run simulates (or loads) graphs, detects communities over an input K
range, computes all three connectivity estimates and their errors against
the truth, scores every candidate for model selection, and streams the
per-replicate records plus summary tables to an output directory:

    out/
      manifest.json     config, seeds, version: everything needed to rerun
      records.jsonl     one record per (replicate, input K)
      summary.csv       per-K medians and error ratios
      selection.csv     chosen K per criterion with deviation metrics
      replicates/rNNN/  simulated edge lists and truth sidecars

Replicate r draws from seed base_seed + r and is independent of the
others, so replicates parallelize across a process pool; a file model is
loaded once and handed to every replicate. Graphs are
canonicalized to the node order an edge-list round-trip produces, which
makes one-replicate runs equal the composed simulate/estimate/select
commands output-for-output.

Every replicate, and the estimate, select and evaluate commands, run the
per-K analysis of analyze_graph; every command's manifest and JSON
results go through write_manifest and write_json.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .community import detect_range
from .estimator import (
    ConnectivityEstimate,
    eb_estimate,
    fit_hyperparams,
    fixed_prior_estimate,
    mle_estimate,
)
from .graph import (
    BlockStats,
    Graph,
    Partition,
    block_counts,
    block_stats,
    compact_partition,
    induced_subgraph,
    relabel_nodes,
)
from .graphon import build_step_graphon, mse_graphon, reorder_identifiable
from .io import _write_rows, canonical_order, ingest_network, write_edge_list, write_label_file
from .metrics import (
    ExperimentRecord,
    deviation_metrics,
    k_tilde,
    mse_sbm,
    split_nodes,
    summarize_records,
    test_loglik,
    theta_star,
    write_records_jsonl,
    write_summary_csv,
    write_table,
)
from .samplers import _draw_sbm, affiliation_theta, powerlaw_graphon, sample_graphon
from .selection import pick_best, score_partition

_MODELS = ("sbm-affiliation", "graphon-powerlaw", "file")


@dataclass(frozen=True)
class ExperimentConfig:
    model: str = "sbm-affiliation"
    n: int = 200
    k_star: int = 10
    lam: float = 0.9
    epsilon: float = 0.1
    rho: float = 1.0
    k_range: tuple = tuple(range(1, 21))
    replicates: int = 20
    base_seed: int = 0
    workers: int = 1
    vem_max_iter: int = 100
    vem_tol: float = 1e-3
    graph_file: str | None = None
    label_file: str | None = None
    write_replicates: bool = True

    def __post_init__(self):
        if self.model not in _MODELS:
            raise ValueError(f"model must be one of {_MODELS}")
        object.__setattr__(self, "k_range", check_k_range(self.k_range))
        if self.model != "file":
            if self.n < 1:
                raise ValueError("n must be >= 1")
            _model_spec(self)
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.vem_max_iter < 1:
            raise ValueError("vem_max_iter must be >= 1")
        if not self.vem_tol >= 0:
            raise ValueError("vem_tol must be >= 0")
        if self.model == "file" and not self.graph_file:
            raise ValueError("model 'file' needs graph_file")
        if self.model != "file" and (self.graph_file or self.label_file):
            raise ValueError(f"graph_file and label_file need model 'file', not {self.model!r}")

    def to_json_dict(self):
        return asdict(self)

    @classmethod
    def from_json_dict(cls, d):
        return cls(**d)


def check_k_range(k_range) -> tuple:
    """k_range as a tuple of ints; raises unless it is nonempty, every K
    is >= 1 and no K repeats."""
    k_range = tuple(int(k) for k in k_range)
    if not k_range:
        raise ValueError("k_range must be nonempty")
    if any(k < 1 for k in k_range):
        raise ValueError("k_range entries must be >= 1")
    if len(set(k_range)) < len(k_range):
        raise ValueError(f"k_range must not repeat a K, got {list(k_range)}")
    return k_range


def _model_spec(cfg: ExperimentConfig):
    """The simulated model's SbmSpec or GraphonSpec; raises on parameters
    the model does not admit."""
    if cfg.model == "sbm-affiliation":
        return affiliation_theta(cfg.k_star, cfg.lam, cfg.epsilon, cfg.rho)
    if cfg.model == "graphon-powerlaw":
        return powerlaw_graphon(cfg.rho, cfg.lam)
    raise ValueError(f"model {cfg.model!r} is not simulated")


def _restrict_truth(theta_full, raw_labels1, ids):
    """Truth matrix and partition restricted to the kept nodes; clusters
    that lost every node are dropped from both."""
    labs = np.asarray(raw_labels1)[ids]
    present = np.unique(labs)
    theta = np.asarray(theta_full)[np.ix_(present - 1, present - 1)]
    return theta, compact_partition(labs)


def _draw_replicate(cfg: ExperimentConfig, r: int):
    """Replicate r's model spec and its sidecars: the graph as drawn, with
    its 1-based "labels" (block model) or its "latents" (graphon)."""
    seed = cfg.base_seed + r
    spec = _model_spec(cfg)
    if cfg.model == "sbm-affiliation":
        graph, z0 = _draw_sbm(spec, cfg.n, seed)
        return spec, {"graph": graph, "labels": z0 + 1}
    graph, latents = sample_graphon(spec, cfg.n, seed)
    return spec, {"graph": graph, "latents": latents}


def _simulate_replicate(cfg: ExperimentConfig, r: int):
    """Returns (canonical graph, truth dict, sidecars dict)."""
    spec, sidecars = _draw_replicate(cfg, r)
    order = canonical_order(sidecars["graph"])
    g = relabel_nodes(sidecars["graph"], order)
    if "labels" in sidecars:
        theta_t, part_t = _restrict_truth(spec.theta, sidecars["labels"], order)
        truth = {"kind": "sbm", "theta": theta_t, "partition": part_t}
    else:
        truth = {"kind": "graphon", "spec": spec}
    return g, truth, sidecars


def _mse_against_truth(est: ConnectivityEstimate, partition, truth) -> float:
    if truth is None:
        return float("nan")
    if truth["kind"] == "sbm":
        return mse_sbm(est.theta, partition, truth["theta"], truth["partition"])
    step = build_step_graphon(partition, est)
    step, _ = reorder_identifiable(step)
    return mse_graphon(step, truth["spec"])


def analyze_graph(graph: Graph, k_range, seed: int, truth=None,
                  replicate: int = 0, cfg: ExperimentConfig | None = None):
    """Run detection, estimation, scoring and selection over the K range.

    Detection is one detect_range call: one eigensolve per graph, and the
    K range's variational EMs in lockstep, each K's result the one it gets
    alone. Each K is then estimated and scored from its partition.

    Returns (records, selection, estimates) where selection maps criterion
    name to the chosen (compacted) K and carries the error-minimizing
    reference K, and estimates holds each K's partition and estimates.
    """
    k_range = check_k_range(k_range)
    cfg = cfg or ExperimentConfig(k_range=k_range)
    records = []
    estimates = []
    detections = detect_range(graph, k_range, seed, max_iter=cfg.vem_max_iter, tol=cfg.vem_tol)
    for K, (det, theta_vb) in zip(k_range, detections):
        stats = block_stats(graph, det.partition)
        hyper = fit_hyperparams(stats)
        est_mle = mle_estimate(stats)
        est_eb = eb_estimate(stats, hyper)
        est_vb = ConnectivityEstimate(theta=theta_vb, method="VBEM-baseline")
        score = score_partition(graph, det.partition, stats=stats, hyper=hyper)
        rec = ExperimentRecord(
            replicate=replicate, K_input=int(K), K_returned=det.partition.K,
            mse_mle=_mse_against_truth(est_mle, det.partition, truth),
            mse_eb=_mse_against_truth(est_eb, det.partition, truth),
            mse_vbem=_mse_against_truth(est_vb, det.partition, truth),
            scores=[score], seed=int(seed),
        )
        records.append(rec)
        estimates.append({"K": int(K), "partition": det.partition,
                          "mle": est_mle, "eb": est_eb, "vbem": est_vb})
    flat_scores = [rec.scores[0] for rec in records]
    selection = {
        "EB": flat_scores[pick_best(flat_scores, "EB")].K,
        "CVRP": flat_scores[pick_best(flat_scores, "CVRP")].K,
    }
    if truth is not None and not any(np.isnan(rec.mse_mle) for rec in records):
        selection["k_tilde"] = k_tilde([(rec.K_input, rec.mse_mle) for rec in records])
    return records, selection, estimates


def _run_one(cfg: ExperimentConfig, r: int, loaded=None):
    if cfg.model == "file":
        graph, truth = loaded
        sidecars = None
    else:
        graph, truth, sidecars = _simulate_replicate(cfg, r)
    records, selection, _ = analyze_graph(
        graph, cfg.k_range, cfg.base_seed + r, truth=truth, replicate=r, cfg=cfg)
    return {"replicate": r, "records": records, "selection": selection,
            "sidecars": sidecars}


def _load_file_model(cfg: ExperimentConfig):
    graph, part, _, _ = ingest_network(cfg.graph_file, cfg.label_file)
    return graph, (annotation_truth(graph, part) if part is not None else None)


def annotation_truth(graph: Graph, partition: Partition):
    """The truth an annotated network supplies: its labels and the block
    densities they induce."""
    return {"kind": "sbm", "theta": theta_star(graph, partition), "partition": partition}


@dataclass
class ExperimentResult:
    records: list
    selection_rows: list
    summary_rows: list
    skipped: list


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None) -> ExperimentResult:
    """Execute all replicates and (when out_dir is given) write the full
    output layout. Replicates that raise are logged, skipped and counted."""
    loaded = _load_file_model(cfg) if cfg.model == "file" else None
    results, skipped = [], []
    with ProcessPoolExecutor(cfg.workers) if cfg.workers > 1 else contextlib.nullcontext() as pool:
        # every replicate is submitted before the first result is awaited
        calls = [pool.submit(_run_one, cfg, r, loaded).result if pool
                 else functools.partial(_run_one, cfg, r, loaded) for r in range(cfg.replicates)]
        for r, call in enumerate(calls):
            try:
                results.append(call())
            except Exception as exc:  # noqa: BLE001 - replicate isolation
                skipped.append({"replicate": r, "error": f"{type(exc).__name__}: {exc}"})

    records = [rec for res in results for rec in res["records"]]
    selection_rows = _selection_summary(cfg, results)
    summary_rows = summarize_records(records)

    if out_dir is not None:
        _write_outputs(cfg, out_dir, results, records, summary_rows, selection_rows, skipped)
    return ExperimentResult(records=records, selection_rows=selection_rows,
                            summary_rows=summary_rows, skipped=skipped)


def _selection_summary(cfg: ExperimentConfig, results):
    rows = []
    k_tildes = [res["selection"].get("k_tilde") for res in results]
    for criterion in ("EB", "CVRP"):
        k_hats = [res["selection"][criterion] for res in results]
        row = {"criterion": criterion, "k_hats": k_hats,
               "frequencies": dict(sorted(Counter(k_hats).items()))}
        if k_tildes and None not in k_tildes:
            e_star, e_tilde = deviation_metrics(k_hats, cfg.k_star, k_tildes)
            if cfg.model == "sbm-affiliation":
                row["e_k_star"] = e_star
            row["e_k_tilde"] = e_tilde
        rows.append(row)
    return rows


def _write_outputs(cfg, out_dir, results, records, summary_rows, selection_rows, skipped):
    os.makedirs(out_dir, exist_ok=True)
    write_records_jsonl(records, os.path.join(out_dir, "records.jsonl"))
    write_summary_csv(summary_rows, os.path.join(out_dir, "summary.csv"))
    _write_selection_csv(selection_rows, os.path.join(out_dir, "selection.csv"))
    if cfg.write_replicates and cfg.model != "file":
        for res in results:
            _write_sidecars(res["sidecars"], out_dir, res["replicate"])
    write_manifest(out_dir, "experiment", {
        **_rerun_payload(cfg),
        "completed": [res["replicate"] for res in results],
        "skipped": skipped,
    })


def simulate(cfg: ExperimentConfig, out_dir):
    """Write every replicate's simulated graph and truth sidecars under
    out_dir/replicates/ and a manifest to rerun them."""
    for r in range(cfg.replicates):
        _write_sidecars(_draw_replicate(cfg, r)[1], out_dir, r)
    write_manifest(out_dir, "simulate", _rerun_payload(cfg))


def _rerun_payload(cfg: ExperimentConfig):
    """The manifest's config and per-replicate seeds: enough to rerun."""
    return {"config": cfg.to_json_dict(),
            "seeds": [cfg.base_seed + r for r in range(cfg.replicates)]}


def write_json(doc, path):
    """Indented, key-sorted JSON and a newline: the format of every
    manifest and of the per-command result files."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(out_dir, command, payload):
    """out_dir/manifest.json: the package version, the command and its payload."""
    write_json({"version": __version__, "command": command, **payload},
               os.path.join(out_dir, "manifest.json"))


def _write_sidecars(side, out_dir, r):
    """A simulated replicate's edge list and truth files under
    out_dir/replicates/rNNN/."""
    sub = os.path.join(out_dir, "replicates", f"r{r:03d}")
    os.makedirs(sub, exist_ok=True)
    write_edge_list(side["graph"], os.path.join(sub, "graph.txt"))
    if "labels" in side:
        write_label_file(side["labels"], os.path.join(sub, "labels.txt"))
    if "latents" in side:
        # %r of a float is its shortest round-trip repr
        latents = side["latents"]
        _write_rows(os.path.join(sub, "latents.txt"), "%d %r\n",
                    (np.arange(latents.size), latents))


def _write_selection_csv(rows, path):
    """selection.csv; a deviation that does not apply is an empty cell."""
    write_table(path, ["criterion", "k_hat_frequencies", "e_k_star", "e_k_tilde"],
                ([row["criterion"], ";".join(f"{k}:{v}" for k, v in row["frequencies"].items()),
                  row.get("e_k_star"), row.get("e_k_tilde")] for row in rows))


def run_testlik_protocol(graph: Graph, partition: Partition, n_splits: int = 100,
                         fraction: float = 0.7, base_seed: int = 0):
    """Held-out likelihood comparison across estimation methods.

    Per split: fit each estimator on the train-induced subgraph under the
    annotated labels (keeping the full K* block structure; blocks emptied
    by the split contribute prior means or density fills), then score the
    held-out pairs. Train and test cover every node, so a pair is held out
    iff it is not inside train, and the held-out block counts are the
    whole graph's (counted once) less the train subgraph's. Returns
    method -> list of log-likelihoods.
    """
    if n_splits < 1:
        raise ValueError(f"n_splits must be >= 1, got {n_splits}")
    out = {"MLE": [], "EB": [], "fixed-prior": []}
    K = partition.K
    x_all, m_all = block_counts(graph, partition.labels - 1, K)
    for s in range(n_splits):
        train, _ = split_nodes(graph.n, fraction=fraction, seed=base_seed + s)
        sub, ids = induced_subgraph(graph, train)
        x, m = block_counts(sub, partition.labels[ids] - 1, K)
        stats = BlockStats(K=K, edge_counts=x, pair_counts=m)
        heldout = BlockStats(K=K, edge_counts=x_all - x, pair_counts=m_all - m)
        ests = {
            "MLE": mle_estimate(stats),
            "EB": eb_estimate(stats, fit_hyperparams(stats)),
            "fixed-prior": fixed_prior_estimate(stats),
        }
        for name, est in ests.items():
            out[name].append(test_loglik(est.theta, heldout))
    return out
