import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import covclust
from covclust import (
    Clustering,
    DissimConfig,
    ExperimentConfig,
    GroundTruth,
    aggregate_rates,
    build_offline_dataset,
    build_online_dataset,
    misclassification_rate,
    run_experiment,
)
from covclust import evaluation, online
from covclust.processes import CACHE_SIZE
from covclust.evaluation import (
    group_hurst,
    offline_path_count,
    online_group_size,
    online_path_length,
)


def clustering_from(labels, kappa):
    labels = np.asarray(labels)
    centers = tuple(
        int(np.flatnonzero(labels == k).min()) if np.any(labels == k) else None
        for k in range(kappa)
    )
    return Clustering(kappa=kappa, labels=labels, centers=centers)


# ---------------------------------------------------------------------------
# misclassification rate
# ---------------------------------------------------------------------------


def test_rate_zero_under_relabeling():
    g = GroundTruth(kappa=3, labels=np.array([0, 0, 1, 1, 2, 2]))
    c = clustering_from([2, 2, 0, 0, 1, 1], 3)
    assert misclassification_rate(c, g) == 0.0


def test_rate_single_misplacement():
    g = GroundTruth(kappa=2, labels=np.array([0] * 5 + [1] * 5))
    c = clustering_from([0, 0, 0, 0, 1, 1, 1, 1, 1, 1], 2)
    assert misclassification_rate(c, g) == pytest.approx(0.1)


def test_rate_degenerate_all_one_cluster():
    g = GroundTruth(kappa=5, labels=np.repeat(np.arange(5), 20))
    c = clustering_from([0] * 100, 5)
    assert misclassification_rate(c, g) == pytest.approx(0.8)


def test_rate_relabel_invariance_both_sides():
    rng = np.random.default_rng(0)
    truth = rng.integers(0, 4, size=30)
    guess = rng.integers(0, 4, size=30)
    base = misclassification_rate(
        clustering_from(guess, 4), GroundTruth(kappa=4, labels=truth)
    )
    perm = np.array([2, 3, 1, 0])
    assert misclassification_rate(
        clustering_from(perm[guess], 4), GroundTruth(kappa=4, labels=truth)
    ) == pytest.approx(base)


def test_rate_large_kappa_assignment_path():
    # kappa above the exhaustive-permutation limit exercises the optimal
    # assignment branch; a perfect relabeling must still score 0
    kappa = 9
    truth = np.repeat(np.arange(kappa), 3)
    perm = np.random.default_rng(1).permutation(kappa)
    c = clustering_from(perm[truth], kappa)
    assert misclassification_rate(c, GroundTruth(kappa=kappa, labels=truth)) == 0.0


def test_small_kappa_rate_leaves_scipy_optimize_unimported():
    # only kappa above the exhaustive limit needs the assignment solver
    code = (
        "import sys; import numpy as np; import covclust as c; "
        "g = c.GroundTruth(kappa=5, labels=np.arange(5)); "
        "k = c.Clustering(kappa=5, labels=np.arange(5), centers=tuple(range(5))); "
        "assert c.misclassification_rate(k, g) == 0.0; "
        "print('scipy.optimize' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(covclust.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_cli_runs_leave_scipy_unimported(tmp_path):
    # every CLI path but kappa > 7 scoring needs numpy only
    code = f"""
import sys
from covclust import cli
d = {str(tmp_path)!r}
runs = [
    ["simulate", "--hurst", "sin:0.3,1.0", "--n", "60", "--paths", "10", "--delta-t", "0.01",
     "--output", d + "/s.csv"],
    ["ingest-check", "--input", d + "/s.csv"],
    ["cluster", "--input", d + "/s.csv", "--output", d + "/l.csv", "--kappa", "5"],
    ["experiment", "--case", "mono", "--seeds", "0", "--epochs", "5,20",
     "--output", d + "/r.csv", "--summary", d + "/m.csv"],
]
for argv in runs:
    assert cli.main(argv) == 0, argv
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(covclust.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "[]"


def test_rate_input_validation():
    g = GroundTruth(kappa=2, labels=np.array([0, 1]))
    with pytest.raises(ValueError):
        misclassification_rate(clustering_from([0, 1, 0], 2), g)
    with pytest.raises(ValueError):
        misclassification_rate(clustering_from([0, 1], 2), GroundTruth(3, np.array([0, 2])))


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


def test_offline_schedule_lengths():
    assert offline_path_count(1) == 8
    assert offline_path_count(100) == 305


def test_online_schedule():
    assert online_group_size(1) == 6
    assert online_group_size(11) == 7
    assert online_group_size(100) == 15
    assert online_path_length(11, 7) == 35
    assert online_path_length(100, 1) == 305
    assert online_path_length(1, 1) == 8


def test_build_offline_dataset_shapes():
    ec = ExperimentConfig(paths_per_group=2)
    paths, truth = build_offline_dataset(ec, 5, seed=0)
    assert len(paths) == 10
    assert all(len(p) == 20 for p in paths)
    assert truth.kappa == 5
    assert np.array_equal(truth.labels, np.repeat(np.arange(5), 2))


def test_offline_prefix_extension():
    ec = ExperimentConfig(paths_per_group=1)
    early, _ = build_offline_dataset(ec, 5, seed=3)
    late, _ = build_offline_dataset(ec, 20, seed=3)
    for a, b in zip(early, late):
        assert np.array_equal(a.values, b.values[: len(a)])


def test_pool_cache_is_bounded():
    ec = ExperimentConfig(path_length=6)
    for seed in range(20):
        evaluation.simulate_pool(ec, seed, 1)
    info = evaluation.simulate_pool.cache_info()
    assert info.currsize <= info.maxsize == CACHE_SIZE
    pool = evaluation.simulate_pool(ec, 19, 1)
    assert evaluation.simulate_pool.cache_info().hits == info.hits + 1
    assert evaluation.simulate_pool(ec, 19, 1) is pool


def test_build_online_dataset_schedule():
    ec = ExperimentConfig(mode="online")
    paths, truth = build_online_dataset(ec, 1, seed=0)
    assert isinstance(paths, tuple)
    assert len(paths) == 30
    assert all(len(p) == 8 for p in paths)
    paths11, truth11 = build_online_dataset(ec, 11, seed=0)
    assert len(paths11) == 35
    lengths = sorted({len(p) for p in paths11})
    assert lengths == [35, 38]  # 7th arrivals are 3 epochs younger


def test_online_prefix_extension():
    ec = ExperimentConfig(mode="online")
    early, _ = build_online_dataset(ec, 10, seed=1)
    late, _ = build_online_dataset(ec, 30, seed=1)
    for a in early:
        match = [b for b in late if b.id == a.id]
        assert len(match) == 1
        assert np.array_equal(a.values, match[0].values[: len(a)])


def test_online_arrival_interleaves_groups():
    ec = ExperimentConfig(mode="online")
    _, truth = build_online_dataset(ec, 1, seed=0)
    assert truth.labels.tolist() == list(range(5)) * 6


def test_group_hurst_profiles():
    mono = group_hurst("mono", 0.4)
    assert mono(0.0) == pytest.approx(0.5)
    assert mono(1.0) == pytest.approx(0.9)
    sin = group_hurst("sin", -0.4)
    assert sin(0.5) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        group_hurst("nope", 0.1)


# ---------------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------------


def test_run_experiment_deterministic():
    ec = ExperimentConfig(paths_per_group=2, seeds=(0, 1), epochs=(1, 2))
    a = run_experiment(ec)
    b = run_experiment(ec)
    assert a == b
    assert len(a) == 4
    for seed, t, rate in a:
        assert 0.0 <= rate <= 1.0


# Rates of the default experiment at seed 0, as `covclust experiment` writes
# them (".17g"); a change to the hot layer must leave them byte for byte.
GOLDEN_RATES = {
    ("offline", "mono"): ["0.56000000000000005", "0.64000000000000001", "0.12", "0"],
    ("offline", "sin"): ["0.68000000000000005", "0.20000000000000001", "0", "0"],
    ("online", "mono"): ["0.6333333333333333", "0.42857142857142855", "0.26000000000000001", "0"],
    ("online", "sin"): ["0.59999999999999998", "0.25714285714285712", "0", "0"],
}


@pytest.mark.parametrize("mode, case", sorted(GOLDEN_RATES))
def test_run_experiment_golden_rates(mode, case):
    ec = ExperimentConfig(case=case, mode=mode)
    rows = run_experiment(ec)
    assert [(seed, t) for seed, t, _ in rows] == [(0, t) for t in ec.epochs]
    assert [format(rate, ".17g") for _, _, rate in rows] == GOLDEN_RATES[mode, case]


def test_run_experiment_separated_constant_h():
    # two well-separated constant-Hurst groups must be perfectly recovered
    ec = ExperimentConfig(
        case="const", h_values=(0.2, 0.8), paths_per_group=3, seeds=(0,), epochs=(40,)
    )
    rows = run_experiment(ec)
    assert rows[0][2] == 0.0


def test_run_experiment_online_mode():
    ec = ExperimentConfig(mode="online", paths_per_group=6, seeds=(0,), epochs=(1,))
    rows = run_experiment(ec)
    assert len(rows) == 1
    assert 0.0 <= rows[0][2] <= 1.0


def test_run_experiment_bad_mode():
    with pytest.raises(ValueError):
        run_experiment(ExperimentConfig(mode="sideways", epochs=(1,)))
    with pytest.raises(ValueError):
        run_experiment(ExperimentConfig(seeds=()))


def test_aggregate_rates():
    rows = [(0, 5, 0.4), (1, 5, 0.2), (0, 10, 0.1), (1, 10, 0.3)]
    agg = aggregate_rates(rows)
    assert agg[0][0] == 5 and agg[0][1] == pytest.approx(0.3)
    assert agg[1][0] == 10 and agg[1][1] == pytest.approx(0.2)
    assert agg[0][2] == pytest.approx(0.1)


def _spy_configs(monkeypatch):
    """Record the cfg of every dissimilarity_matrix call the experiment makes."""
    seen = []
    real = evaluation.dissimilarity_matrix

    def spy(paths, cfg, **kwargs):
        seen.append(cfg)
        return real(paths, cfg, **kwargs)

    monkeypatch.setattr(evaluation, "dissimilarity_matrix", spy)
    monkeypatch.setattr(online, "dissimilarity_matrix", spy)
    return seen


def test_run_experiment_resolves_localized_windows(monkeypatch):
    seen = _spy_configs(monkeypatch)
    run_experiment(ExperimentConfig(paths_per_group=2, epochs=(5,)))
    assert [(c.K, c.L) for c in seen] == [(4, 15)]  # n=20: K=floor(sqrt 20), all windows
    seen.clear()
    run_experiment(ExperimentConfig(mode="online", epochs=(10,)))
    assert [(c.K, c.L) for c in seen] == [(5, 29)]  # shortest path n_min=35
    assert seen[0].use_log_star


def test_run_experiment_keeps_explicit_windows(monkeypatch):
    seen = _spy_configs(monkeypatch)
    cfg = DissimConfig(K=3, L=2)
    run_experiment(ExperimentConfig(paths_per_group=2, epochs=(5,), dissim=cfg))
    assert seen == [cfg]
