import re
from pathlib import Path

import covclust

README = Path(__file__).resolve().parent.parent / "README.md"

# Every public name of the package. A name added to or removed from
# `covclust` must be added to or removed from this list on purpose.
PUBLIC_NAMES = [
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


def test_public_surface_is_pinned():
    assert covclust.__all__ == PUBLIC_NAMES
    assert all(hasattr(covclust, name) for name in PUBLIC_NAMES)


def test_readme_python_examples_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "readme"}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
