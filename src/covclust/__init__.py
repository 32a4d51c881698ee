"""Covariance-based dissimilarity and consistent clustering of process paths."""

from .dissimilarity import (
    DissimConfig,
    IncrementPath,
    OpCounter,
    d_hat,
    d_hat_rho_count,
    d_star_hat,
    d_tilde_star,
    default_mn,
    default_weights,
    dissimilarity_matrix,
    log_star,
)
from .evaluation import (
    ExperimentConfig,
    GroundTruth,
    aggregate_rates,
    build_offline_dataset,
    build_online_dataset,
    misclassification_rate,
    run_experiment,
)
from .hurst import HurstDomainError, HurstFunction
from .offline import Clustering, offline_cluster
from .online import online_cluster
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

__all__ = [
    "Clustering",
    "DissimConfig",
    "ExperimentConfig",
    "FactorizationError",
    "GroundTruth",
    "HurstDomainError",
    "HurstFunction",
    "IncrementPath",
    "OpCounter",
    "SamplePath",
    "aggregate_rates",
    "build_cov_matrix",
    "build_offline_dataset",
    "build_online_dataset",
    "cholesky_with_jitter",
    "d_factor",
    "d_hat",
    "d_hat_rho_count",
    "d_star_hat",
    "d_tilde_star",
    "default_mn",
    "default_weights",
    "dissimilarity_matrix",
    "fbm_increment_cov_matrix",
    "log_star",
    "misclassification_rate",
    "offline_cluster",
    "online_cluster",
    "run_experiment",
    "sample_fbm_increments",
    "sample_path",
]
