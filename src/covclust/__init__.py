"""Covariance-based dissimilarity and consistent clustering of process paths."""

from .dissimilarity import (
    DissimConfig,
    IncrementPath,
    OpCounter,
    analytic_d,
    d_hat,
    d_hat_rho_count,
    d_star_hat,
    d_tilde_star,
    default_mn,
    default_weights,
    dissimilarity_matrix,
    empirical_cov,
    increment_path,
    localized_increments,
    log_star,
    rho,
)
from .evaluation import (
    ExperimentConfig,
    GroundTruth,
    aggregate_rates,
    build_offline_dataset,
    build_online_dataset,
    ground_truth_restrict,
    misclassification_rate,
    run_experiment,
)
from .hurst import HurstDomainError, HurstFunction
from .offline import Clustering, offline_cluster
from .online import default_beta, online_cluster
from .processes import (
    FactorizationError,
    SamplePath,
    build_cov_matrix,
    cholesky_with_jitter,
    d_factor,
    fbm_increment_cov_matrix,
    sample_fbm_increments,
    sample_path,
)

__all__ = [name for name in dir() if not name.startswith("_")]
