"""Empirical Bayes toolkit for stochastic block models and graphons.

Estimates block connectivity matrices by pooling information across
blocks through a hierarchical Beta-Binomial model, selects the number of
communities with a penalized marginal likelihood, and ships seeded
samplers, detection providers and evaluation metrics for reproducible
experiments.
"""

__version__ = "0.1.0"

from .errors import DataError, DegeneratePartitionError, NumericalError
from .graph import (
    BlockStats,
    Graph,
    Partition,
    block_stats,
    compact_partition,
    induced_subgraph,
)
from .numerics import digamma, log_beta, log_gamma
from .samplers import (
    GraphonSpec,
    SbmSpec,
    affiliation_theta,
    powerlaw_graphon,
    sample_graphon,
    sample_sbm,
)
from .estimator import (
    ConnectivityEstimate,
    HyperParams,
    eb_estimate,
    fit_hyperparams,
    fixed_prior_estimate,
    loglik_gradient,
    marginal_loglik,
    mle_estimate,
)
from .selection import (
    SelectionScore,
    cvrp_score,
    eb_penalty,
    log_dirichlet_marginal,
    pick_best,
    score_partition,
)
from .graphon import (
    StepGraphon,
    bin_index,
    build_step_graphon,
    mse_graphon,
    reorder_identifiable,
)
from .community import DetectionResult, detect_pipeline, spectral_partition, variational_em
from .metrics import (
    ExperimentRecord,
    deviation_metrics,
    k_tilde,
    mse_sbm,
    split_nodes,
    test_loglik,
    theta_star,
)
from .experiment import ExperimentConfig, ExperimentResult, run_experiment, run_testlik_protocol
from .io import ingest_network, read_edge_list, write_edge_list

__all__ = [name for name in dir() if not name.startswith("_")]
