import gc
import itertools
import math
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import covclust
from covclust import (
    Clustering,
    DissimConfig,
    ExperimentConfig,
    GroundTruth,
    HurstFunction,
    aggregate_rates,
    build_offline_dataset,
    build_online_dataset,
    dissimilarity_matrix,
    misclassification_rate,
    offline_cluster,
    online_cluster,
    run_experiment,
    sample_path,
)
from covclust import evaluation
from covclust.evaluation import (
    group_hurst,
    offline_path_count,
    online_group_size,
    online_path_length,
)

from naive_oracles import permutationwise_misclassification_rate


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
    ["cluster", "--input", d + "/s.csv", "--output", d + "/o.csv", "--kappa", "5",
     "--mode", "online"],
    ["experiment", "--case", "mono", "--seeds", "0", "--epochs", "5,20",
     "--output", d + "/r.csv", "--summary", d + "/m.csv"],
    ["experiment", "--mode", "online", "--seeds", "0", "--epochs", "1",
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


def _rate_cases(kappa, rng):
    """Random, tied and partly empty clusterings of 3 * kappa! paths."""
    n = 3 * math.factorial(kappa)
    truth = rng.integers(0, kappa, n)
    yield truth, rng.integers(0, kappa, n)
    # every (cluster, group) pair equally often: every bijection ties
    grid = np.array(list(itertools.product(range(kappa), repeat=2)))
    yield grid[:, 1], grid[:, 0]
    # clusters left empty: one merged into another, half unused, all but one
    yield truth, np.where(truth == 0, kappa - 1, truth)
    yield truth, rng.integers(0, max(kappa // 2, 1), n)
    yield truth, np.zeros(n, dtype=int)


@pytest.mark.parametrize("kappa", range(1, 8))
def test_rate_matches_permutationwise_oracle(kappa):
    rng = np.random.default_rng(kappa)
    for truth, guess in _rate_cases(kappa, rng):
        c, g = clustering_from(guess, kappa), GroundTruth(kappa=kappa, labels=truth)
        assert misclassification_rate(c, g) == permutationwise_misclassification_rate(c, g)


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
    paths, truth = build_offline_dataset(evaluation.simulate_pool(ec, 0, 2), 5)
    assert len(paths) == 10
    assert all(len(p) == 20 for p in paths)
    assert truth.kappa == 5
    assert np.array_equal(truth.labels, np.repeat(np.arange(5), 2))


def test_offline_prefix_extension():
    pool = evaluation.simulate_pool(ExperimentConfig(paths_per_group=1), 3, 1)
    early, _ = build_offline_dataset(pool, 5)
    late, _ = build_offline_dataset(pool, 20)
    for a, b in zip(early, late):
        assert np.array_equal(a.values, b.values[: len(a)])


def _online_pool(seed):
    """The pool of the default online experiment, sized for its last epoch."""
    ec = ExperimentConfig(mode="online")
    return evaluation.simulate_pool(ec, seed, online_group_size(max(ec.epochs)))


def test_build_online_dataset_schedule():
    pool = _online_pool(0)
    paths, truth = build_online_dataset(pool, 1)
    assert isinstance(paths, tuple)
    assert len(paths) == 30
    assert all(len(p) == 8 for p in paths)
    paths11, truth11 = build_online_dataset(pool, 11)
    assert len(paths11) == 35
    lengths = sorted({len(p) for p in paths11})
    assert lengths == [35, 38]  # 7th arrivals are 3 epochs younger


def test_online_prefix_extension():
    pool = _online_pool(1)
    early, _ = build_online_dataset(pool, 10)
    late, _ = build_online_dataset(pool, 30)
    for a in early:
        match = [b for b in late if b.id == a.id]
        assert len(match) == 1
        assert np.array_equal(a.values, match[0].values[: len(a)])


def test_online_arrival_interleaves_groups():
    _, truth = build_online_dataset(_online_pool(0), 1)
    assert truth.labels.tolist() == list(range(5)) * 6


def test_group_hurst_profiles():
    mono = group_hurst("mono", 0.4)
    assert mono(0.0) == pytest.approx(0.5)
    assert mono(1.0) == pytest.approx(0.9)
    sin = group_hurst("sin", -0.4)
    assert sin(0.5) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        group_hurst("nope", 0.1)
    with pytest.raises(ValueError):
        ExperimentConfig(case="const")


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
    # two well-separated constant-Hurst groups, clustered like an offline epoch
    # of t=40, must be perfectly recovered
    paths = [
        sample_path(HurstFunction.constant(h), 305, 1 / 305, seed=(0, gi, l)).prefix(125)
        for gi, h in enumerate((0.2, 0.8))
        for l in range(1, 4)
    ]
    D = dissimilarity_matrix(paths, DissimConfig(use_log_star=True))
    truth = GroundTruth(kappa=2, labels=np.repeat(np.arange(2), 3))
    assert misclassification_rate(offline_cluster(D, 2), truth) == 0.0


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


# Every bad value that `covclust experiment` rejects with exit 4, and epochs
# below 1, which would cut the pool's paths by negative slicing.
@pytest.mark.parametrize("key, value", [
    ("case", "const"), ("case", ["mono"]), ("mode", "sideways"),
    ("seeds", "12"), ("seeds", []), ("seeds", [0, True]), ("seeds", [0.0]), ("seeds", [-3]),
    ("seeds", (-1,)),
    ("epochs", 5), ("epochs", ["5"]), ("epochs", []), ("epochs", [0]), ("epochs", (5, -2)),
    ("paths_per_group", "abc"), ("paths_per_group", 2.0), ("paths_per_group", 0),
    ("paths_per_group", -1), ("paths_per_group", True),
    ("path_length", 1), ("path_length", 305.0), ("path_length", "305"), ("path_length", True),
    ("path_length", -5),
    ("log_star", "false"), ("log_star", 1),
])
def test_experiment_config_rejects_bad_values(key, value):
    with pytest.raises(ValueError, match=rf"^{key} must be .+, got {re.escape(repr(value))}$"):
        ExperimentConfig(**{key: value})


def test_experiment_config_reports_the_first_bad_field():
    with pytest.raises(ValueError, match="^mode must be offline or online"):
        ExperimentConfig(mode="sideways", seeds=[], epochs=[0], path_length=1)
    with pytest.raises(ValueError, match="^case must be mono or sin"):
        ExperimentConfig(case="const", mode="sideways")


def test_experiment_config_stores_lists_as_tuples():
    ec = ExperimentConfig(seeds=[0], epochs=[5], paths_per_group=2)
    assert ec.seeds == (0,) and ec.epochs == (5,)
    same = ExperimentConfig(seeds=(0,), epochs=(5,), paths_per_group=2)
    assert ec == same and hash(ec) == hash(same)
    rows = run_experiment(ec)
    assert [(seed, t) for seed, t, _ in rows] == [(0, 5)]
    assert rows == run_experiment(same)


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
    return seen


def test_run_experiment_resolves_localized_windows(monkeypatch):
    seen = _spy_configs(monkeypatch)
    run_experiment(ExperimentConfig(paths_per_group=2, epochs=(5,)))
    assert [(c.K, c.L) for c in seen] == [(4, 15)]  # n=20: K=floor(sqrt 20), all windows
    seen.clear()
    run_experiment(ExperimentConfig(mode="online", epochs=(10,)))
    assert [(c.K, c.L) for c in seen] == [(5, 29)]  # shortest path n_min=35
    assert seen[0].use_log_star

    seen.clear()
    run_experiment(ExperimentConfig(paths_per_group=2, epochs=(5,), log_star=False))
    assert seen == [DissimConfig(K=4, L=15)]


@pytest.mark.parametrize("mode", ["offline", "online"])
def test_experiment_epochs_yield_each_epochs_matrix_and_clustering(mode):
    # each record's D is the epoch's matrix under its pinned windows, and its
    # clustering is the mode's step applied to that D
    ec = ExperimentConfig(mode=mode, paths_per_group=2, seeds=(3,), epochs=(5, 20))
    if mode == "offline":
        build, per_group, step = build_offline_dataset, 2, offline_cluster
    else:
        build, per_group, step = build_online_dataset, online_group_size(20), online_cluster
    pool = evaluation.simulate_pool(ec, 3, per_group)
    records = list(evaluation.experiment_epochs(ec, 3))
    assert [e.t for e in records] == [5, 20]
    for e in records:
        paths, truth = build(pool, e.t)
        K, L = DissimConfig().windows(min(len(p) for p in paths))
        assert e.cfg == DissimConfig(K=K, L=L, use_log_star=True)
        assert e.D.tobytes() == dissimilarity_matrix(paths, e.cfg).tobytes()
        want = step(e.D, ec.kappa)
        assert e.clustering.labels.tobytes() == want.labels.tobytes()
        assert e.clustering.centers == want.centers
        assert e.truth.labels.tobytes() == truth.labels.tobytes()
    assert run_experiment(ec) == [
        (3, e.t, misclassification_rate(e.clustering, e.truth)) for e in records]


@pytest.mark.parametrize("mode", ["offline", "online"])
def test_run_experiment_keeps_no_pool(monkeypatch, mode):
    # every sampled path is freed once the rows are dropped: no cache holds a pool
    sampled = []
    real = evaluation.simulate_pool

    def spy(ec, seed, per_group):
        pool = real(ec, seed, per_group)
        sampled.extend(weakref.ref(p) for group in pool for p in group)
        return pool

    monkeypatch.setattr(evaluation, "simulate_pool", spy)
    rows = run_experiment(ExperimentConfig(mode=mode, paths_per_group=2, seeds=(0, 1),
                                           epochs=(2, 5)))
    assert len(rows) == 4 and len(sampled) == (20 if mode == "offline" else 60)
    del rows
    gc.collect()
    assert all(ref() is None for ref in sampled)


@pytest.mark.parametrize("mode", ["offline", "online"])
def test_run_experiment_checks_every_epoch_before_sampling(monkeypatch, mode):
    def no_pool(ec, seed, per_group):
        raise AssertionError("a pool was sampled")

    monkeypatch.setattr(evaluation, "simulate_pool", no_pool)
    with pytest.raises(ValueError, match=r"^epoch 150 needs 455 samples but paths have 305$"):
        run_experiment(ExperimentConfig(mode=mode, epochs=(5, 150)))
