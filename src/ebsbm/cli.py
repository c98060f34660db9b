"""Command-line front end.

Subcommands: simulate, estimate, select, evaluate, experiment, ingest;
estimate, select and evaluate run experiment.analyze_graph. Exit codes:
0 success, 1 usage, 2 data error (or an experiment whose every replicate
was skipped), 3 numerical failure. The EBSBM_OUTPUT_ROOT environment
variable supplies a default parent for --out when the flag is omitted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import DataError, NumericalError
from .experiment import (
    ExperimentConfig,
    analyze_graph,
    annotation_truth,
    check_k_range,
    run_experiment,
    run_testlik_protocol,
    simulate,
    write_json,
    write_manifest,
)
from .graphon import build_step_graphon, reorder_identifiable
from .io import ingest_network, read_edge_list, write_edge_list, write_label_file
from .selection import scores_to_csv


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_k_range(text):
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            k_range = tuple(range(int(lo), int(hi) + 1))
        else:
            k_range = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise DataError(f"--k-range {text!r} is not LO..HI, a comma list such as 2,4,8, "
                        "or one K") from None
    return check_k_range(k_range)


def _out_dir(args, command):
    if args.out:
        return args.out
    root = os.environ.get("EBSBM_OUTPUT_ROOT")
    if root:
        return os.path.join(root, command)
    return None


def _require_out(args, command):
    out = _out_dir(args, command)
    if out is None:
        raise DataError("--out is required (or set EBSBM_OUTPUT_ROOT)")
    os.makedirs(out, exist_ok=True)
    return out


def _analyze(args, graph, k_range, truth=None):
    """analyze_graph over k_range with the command's detection flags."""
    cfg = ExperimentConfig(k_range=k_range, vem_max_iter=args.vem_max_iter,
                           vem_tol=args.vem_tol)
    return analyze_graph(graph, k_range, args.seed, truth=truth, cfg=cfg)


def _add_model_flags(p):
    p.add_argument("--model", default="sbm-affiliation",
                   choices=["sbm-affiliation", "graphon-powerlaw"])
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--k-star", type=int, default=10)
    p.add_argument("--lambda", dest="lam", type=float, default=0.9)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--rho", type=float, default=1.0)


def _add_detect_flags(p):
    p.add_argument("--vem-max-iter", type=int, default=100)
    p.add_argument("--vem-tol", type=float, default=1e-3)


def cmd_simulate(args):
    out = _require_out(args, "simulate")
    cfg = ExperimentConfig(model=args.model, n=args.n, k_star=args.k_star,
                           lam=args.lam, epsilon=args.epsilon, rho=args.rho,
                           k_range=(1,), replicates=args.replicates,
                           base_seed=args.seed)
    simulate(cfg, out)
    print(f"wrote {cfg.replicates} replicate(s) under {out}")
    return 0


def cmd_estimate(args):
    k_range = _parse_k_range(args.k_range)
    out = _require_out(args, "estimate")
    graph, _, report = read_edge_list(args.graph)
    _, _, estimates = _analyze(args, graph, k_range)
    for est in estimates:
        K, part = est["K"], est["partition"]
        step, _ = reorder_identifiable(build_step_graphon(part, est["eb"]))
        write_json({
            "K_input": K,
            "K_returned": part.K,
            "estimates": {m: est[m].to_json_dict() for m in ("mle", "eb", "vbem")},
            "step_graphon": step.to_json_dict(),
        }, os.path.join(out, f"estimate_K{K:02d}.json"))
        write_label_file(part, os.path.join(out, f"partition_K{K:02d}.txt"))
    write_manifest(out, "estimate", {
        "graph": os.path.abspath(args.graph), "ingest": report,
        "k_range": list(k_range), "seed": args.seed,
    })
    print(f"wrote {len(k_range)} estimate file(s) under {out}")
    return 0


def cmd_select(args):
    k_range = _parse_k_range(args.k_range)
    graph, _, report = read_edge_list(args.graph)
    records, selection, _ = _analyze(args, graph, k_range)
    scores = [rec.scores[0] for rec in records]
    k_hat = selection[args.criterion]
    out = _out_dir(args, "select")
    if out:
        os.makedirs(out, exist_ok=True)
        scores_to_csv(scores, os.path.join(out, "scores.csv"))
        write_manifest(out, "select", {
            "graph": os.path.abspath(args.graph), "ingest": report,
            "k_range": list(k_range), "seed": args.seed,
            "criterion": args.criterion, "k_hat": k_hat,
        })
    for s in scores:
        print(f"K={s.K} j_z={s.j_z:.4f} penalty={s.penalty:.4f} "
              f"total={s.total:.4f} cvrp={s.cvrp:.6f}")
    print(f"K_hat {k_hat}")
    return 0


def cmd_evaluate(args):
    k_range = _parse_k_range(args.k_range) if args.k_range else None
    graph, part, _, report = ingest_network(args.graph, args.labels)
    if part is None:
        raise DataError("evaluate needs --labels with annotated memberships")
    print(f"ingested n={report['n']} edges={report['edges']} labels={report['k_labels']}")
    # the protocol first, so a bad --splits or --fraction fails before the K sweep
    loglik = run_testlik_protocol(graph, part, n_splits=args.splits,
                                  fraction=args.fraction, base_seed=args.seed)
    results = {}
    if k_range:
        records, _, _ = _analyze(args, graph, k_range, truth=annotation_truth(graph, part))
        results["mse_vs_annotation"] = [
            {"K": r.K_input, "mse_mle": r.mse_mle, "mse_eb": r.mse_eb,
             "mse_vbem": r.mse_vbem} for r in records
        ]
        for r in records:
            ratio = r.mse_eb / r.mse_mle if r.mse_mle > 0 else float("nan")
            print(f"K={r.K_input} mse_eb/mse_mle={ratio:.4f}")
    results["test_loglik"] = loglik
    for name in ("MLE", "EB", "fixed-prior"):
        print(f"median test loglik {name}: {np.median(loglik[name]):.4f}")
    out = _out_dir(args, "evaluate")
    if out:
        os.makedirs(out, exist_ok=True)
        write_json(results, os.path.join(out, "evaluation.json"))
        write_manifest(out, "evaluate", {
            "graph": os.path.abspath(args.graph),
            "labels": os.path.abspath(args.labels),
            "ingest": report, "splits": args.splits,
            "fraction": args.fraction, "seed": args.seed,
        })
    return 0


def cmd_experiment(args):
    out = _require_out(args, "experiment")
    model = "file" if args.graph else args.model
    cfg = ExperimentConfig(
        model=model, n=args.n, k_star=args.k_star, lam=args.lam,
        epsilon=args.epsilon, rho=args.rho, k_range=_parse_k_range(args.k_range),
        replicates=args.replicates, base_seed=args.seed, workers=args.workers,
        vem_max_iter=args.vem_max_iter, vem_tol=args.vem_tol,
        graph_file=args.graph, label_file=args.labels,
    )
    res = run_experiment(cfg, out_dir=out)
    for row in res.summary_rows:
        print(f"K={row['K']} median_ratio_eb_mle={row['median_ratio_eb_mle']:.4f}")
    for row in res.selection_rows:
        extra = ""
        if "e_k_star" in row:
            extra += f" e_k_star={row['e_k_star']:.3f}"
        if "e_k_tilde" in row:
            extra += f" e_k_tilde={row['e_k_tilde']:.3f}"
        print(f"{row['criterion']}: k_hats={row['frequencies']}{extra}")
    if res.skipped:
        print(f"skipped {len(res.skipped)} replicate(s)", file=sys.stderr)
        for skip in res.skipped:
            print(f"replicate {skip['replicate']}: {skip['error']}", file=sys.stderr)
    return 2 if len(res.skipped) == cfg.replicates else 0


def cmd_ingest(args):
    out = _require_out(args, "ingest")
    graph, part, ids, report = ingest_network(args.graph, args.labels)
    write_edge_list(graph, os.path.join(out, "edges.txt"))
    with open(os.path.join(out, "node_ids.json"), "w") as fh:
        json.dump({"ids": ids}, fh)
        fh.write("\n")
    if part is not None:
        write_label_file(part, os.path.join(out, "labels.txt"))
    write_manifest(out, "ingest", {"source": os.path.abspath(args.graph),
                                    "report": report})
    print(json.dumps(report, sort_keys=True))
    return 0


def build_parser():
    parser = _Parser(prog="ebsbm", description=__doc__)
    parser.add_argument("--version", action="version", version=f"ebsbm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("simulate", help="write seeded random graphs with truth sidecars")
    _add_model_flags(p)
    p.add_argument("--replicates", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="detect communities and estimate connectivity")
    p.add_argument("--graph", required=True)
    p.add_argument("--k-range", required=True, help="e.g. 1..20 or 2,4,8 or 5")
    p.add_argument("--seed", type=int, default=0)
    _add_detect_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("select", help="score a K range and choose the best")
    p.add_argument("--graph", required=True)
    p.add_argument("--k-range", required=True)
    p.add_argument("--criterion", default="EB", choices=["EB", "CVRP"])
    p.add_argument("--seed", type=int, default=0)
    _add_detect_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("evaluate", help="annotation-based accuracy and held-out likelihood")
    p.add_argument("--graph", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--k-range", help="optional K range for MSE against the annotation")
    p.add_argument("--splits", type=int, default=100)
    p.add_argument("--fraction", type=float, default=0.7)
    p.add_argument("--seed", type=int, default=0)
    _add_detect_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("experiment", help="full simulate/detect/estimate/select pipeline")
    _add_model_flags(p)
    p.add_argument("--graph", help="analyze this edge list instead of simulating")
    p.add_argument("--labels")
    p.add_argument("--k-range", required=True)
    p.add_argument("--replicates", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    _add_detect_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("ingest", help="normalize an edge list (and labels) to canonical form")
    p.add_argument("--graph", required=True)
    p.add_argument("--labels")
    p.add_argument("--out")
    p.set_defaults(func=cmd_ingest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, FileNotFoundError, OSError, ValueError) as exc:
        print(f"ebsbm: error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"ebsbm: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
