"""Which ebsbm names the traced run wraps, and the per-layer metrics.

Every probe wraps the module-level name through which the pipeline
reaches a layer, so the spans sit at layer boundaries without any
change to the program. README.md states, for each per-layer metric, the
end-to-end metric and workload it is expected to move.
"""

from __future__ import annotations

from tracing import Probe, self_by_name

_E = "ebsbm.experiment"
_C = "ebsbm.community"


def _box_edge(value):
    from ebsbm import estimator

    lo = getattr(estimator, "HYPER_BOX_LOWER", 1e-4)
    hi = getattr(estimator, "HYPER_BOX_UPPER", 1e6)
    return value <= lo * (1 + 1e-6) or value >= hi * (1 - 1e-6)


def _count_sampled(add, a, result):
    add("samplers.edges", result[2]["graph"].edge_count)


def _count_kmeans(add, a, result):
    add("community.kmeans.iters", result[2])


def _count_vem(add, a, result):
    det = result[0]
    add("community.vem.calls")
    add("community.vem.sweeps", det.iterations)
    add("community.vem.node_updates", det.iterations * a["graph"].n)
    add("community.vem.converged", int(det.converged))
    add("community.vem.collapsed", int(det.partition.K < a["K"]))


def _count_fit(add, a, h):
    add("estimator.fit.calls")
    pairs = [((h.alpha0, h.beta0), h.diag_converged)]
    if h.offdiag_fitted:
        pairs.append(((h.alpha1, h.beta1), h.offdiag_converged))
    for params, converged in pairs:
        add("estimator.fit.pair_fits")
        add("estimator.fit.converged", int(converged))
        add("estimator.fit.boundary", int(any(_box_edge(v) for v in params)))


def _count_maximize(add, a, result):
    add("numerics.maximize.iters", result.iterations)


PROBES = (
    # one replicate of run_experiment; its id scopes every span below it
    Probe(_E, "_run_one", "experiment", unit=lambda a: f"replicate:{a['r']}"),
    # a held-out split's id is only known at its first call; it stays set
    Probe(_E, "split_nodes", "experiment", unit=lambda a: f"split-seed:{a['seed']}", sticky=True),
    # the SBM path samples inside this private step; io children are split out
    Probe(_E, "_simulate_replicate", "samplers", count=_count_sampled),
    Probe(_E, "canonical_order", "io"),
    Probe(_E, "relabel_nodes", "io"),
    Probe(_E, "write_edge_list", "io"),
    Probe("ebsbm.io", "ingest_network", "io"),
    Probe(_C, "spectral_partition", "community.spectral"),
    Probe(_C, "_kmeans_once", "community.kmeans", count=_count_kmeans),
    Probe(_C, "variational_em", "community.vem", count=_count_vem),
    Probe(_E, "block_stats", "graph"),
    Probe(_E, "block_counts", "graph"),
    Probe(_E, "induced_subgraph", "graph.induced_subgraph"),
    Probe(_E, "fit_hyperparams", "estimator.fit", count=_count_fit),
    # counter only, so estimator.fit.self_s keeps the optimiser's time
    Probe("ebsbm.estimator", "maximize_box", count=_count_maximize),
    Probe(_E, "mle_estimate", "estimator.estimates"),
    Probe(_E, "eb_estimate", "estimator.estimates"),
    Probe(_E, "fixed_prior_estimate", "estimator.estimates"),
    Probe(_E, "score_partition", "selection"),
    Probe(_E, "pick_best", "selection"),
    Probe(_E, "mse_sbm", "metrics.mse"),
    Probe(_E, "test_loglik", "metrics.test_loglik"),
    Probe(_E, "write_records_jsonl", "metrics.write"),
    Probe(_E, "write_summary_csv", "metrics.write"),
    Probe(_E, "_write_selection_csv", "metrics.write"),
)

# Span names whose self times are reported; with "experiment" (the roots,
# replicates and split bookkeeping) they partition every root span.
SPAN_NAMES = (
    "experiment", "samplers", "io", "community.spectral", "community.kmeans",
    "community.vem", "graph", "graph.induced_subgraph", "estimator.fit",
    "estimator.estimates", "selection", "metrics.mse", "metrics.test_loglik",
    "metrics.write",
)

PEAK_ALLOC_SPANS = ("samplers", "community.spectral", "community.vem", "metrics.mse")

# (name, unit, better)
PER_LAYER = (
    ("community.vem.self_s", "s", "lower"),
    ("community.vem.calls", "count", "lower"),
    ("community.vem.sweeps", "count", "lower"),
    ("community.vem.us_per_node_update", "us", "lower"),
    ("community.vem.converged_frac", "fraction", "higher"),
    ("community.k_collapse_frac", "fraction", "lower"),
    ("community.spectral.self_s", "s", "lower"),
    ("community.kmeans.self_s", "s", "lower"),
    ("community.kmeans.iters", "count", "lower"),
    ("estimator.fit.self_s", "s", "lower"),
    ("estimator.fit.calls", "count", "lower"),
    ("estimator.fit.pair_fits", "count", "lower"),
    ("numerics.maximize.iters", "count", "lower"),
    ("estimator.fit.converged_frac", "fraction", "higher"),
    ("estimator.fit.boundary_frac", "fraction", "lower"),
    ("estimator.estimates.self_s", "s", "lower"),
    ("metrics.mse.self_s", "s", "lower"),
    ("metrics.test_loglik.self_s", "s", "lower"),
    ("metrics.write.self_s", "s", "lower"),
    ("graph.self_s", "s", "lower"),
    ("graph.induced_subgraph.self_s", "s", "lower"),
    ("samplers.self_s", "s", "lower"),
    ("samplers.edges", "count", "lower"),
    ("io.self_s", "s", "lower"),
    ("selection.self_s", "s", "lower"),
    ("selection.khat_abs_err", "clusters", "lower"),
    ("experiment.self_s", "s", "lower"),
    ("samplers.peak_alloc_mb", "MB", "lower"),
    ("community.spectral.peak_alloc_mb", "MB", "lower"),
    ("community.vem.peak_alloc_mb", "MB", "lower"),
    ("metrics.mse.peak_alloc_mb", "MB", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, counters, peaks, khat_abs_err, overhead_frac):
    """Every PER_LAYER metric from one traced pass and one memory pass.

    A fraction whose base is 0 (the layer did not run) reads 0; its base
    is reported beside it.
    """
    own = self_by_name(spans)
    c = counters.get
    vem_self = own.get("community.vem", 0.0)
    out = {f"{name}.self_s": own.get(name, 0.0) for name in SPAN_NAMES}
    out.update({
        "community.vem.calls": c("community.vem.calls", 0),
        "community.vem.sweeps": c("community.vem.sweeps", 0),
        "community.vem.us_per_node_update":
            1e6 * _ratio(vem_self, c("community.vem.node_updates", 0)),
        "community.vem.converged_frac":
            _ratio(c("community.vem.converged", 0), c("community.vem.calls", 0)),
        "community.k_collapse_frac":
            _ratio(c("community.vem.collapsed", 0), c("community.vem.calls", 0)),
        "community.kmeans.iters": c("community.kmeans.iters", 0),
        "estimator.fit.calls": c("estimator.fit.calls", 0),
        "estimator.fit.pair_fits": c("estimator.fit.pair_fits", 0),
        "numerics.maximize.iters": c("numerics.maximize.iters", 0),
        "estimator.fit.converged_frac":
            _ratio(c("estimator.fit.converged", 0), c("estimator.fit.pair_fits", 0)),
        "estimator.fit.boundary_frac":
            _ratio(c("estimator.fit.boundary", 0), c("estimator.fit.pair_fits", 0)),
        "samplers.edges": c("samplers.edges", 0),
        "selection.khat_abs_err": khat_abs_err,
        "trace.overhead_frac": overhead_frac,
    })
    for name in PEAK_ALLOC_SPANS:
        out[f"{name}.peak_alloc_mb"] = peaks.get(name, 0) / 2**20
    return {name: out[name] for name, *_ in PER_LAYER}
