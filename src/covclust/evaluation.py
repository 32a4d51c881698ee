"""Ground-truth bookkeeping, misclassification scoring, and synthetic experiments.

The synthetic schedules grow a fixed pool of simulated paths over epochs:
offline datasets truncate every path to its first 3t+5 values; online
datasets additionally grow the number of visible paths per group by one every
10 epochs, interleaving groups in a fixed global arrival order.

Each epoch is clustered with the paper's localized measure d_star_hat, its
windows resolved once, by `DissimConfig.windows`, on the length n_min of the
epoch's shortest path: unless the configuration fixes them, K =
floor(sqrt(n_min)) and all n_min - K - 1 windows are averaged.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .dissimilarity import DissimConfig, OpCounter, dissimilarity_matrix
from .hurst import HurstFunction
from .offline import Clustering, offline_cluster
from .online import online_cluster
from .processes import CACHE_SIZE, sample_path

MONO_H_VALUES = (-0.4, -0.2, 0.0, 0.2, 0.4)
SIN_H_VALUES = (0.4, 0.2, 0.0, -0.2, -0.4)

_EXHAUSTIVE_KAPPA_LIMIT = 7


@dataclass(frozen=True)
class GroundTruth:
    """The reference partition of path indexes into kappa groups."""

    kappa: int
    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=int)
        object.__setattr__(self, "labels", labels)
        present = np.unique(labels)
        if present.size == 0 or present.min() < 0 or present.max() >= self.kappa:
            raise ValueError("ground-truth labels must lie in 0..kappa-1")


def misclassification_rate(c: Clustering, g: GroundTruth) -> float:
    """Minimal fraction of wrongly grouped paths over label bijections.

    Exhaustive over the kappa! bijections for small kappa, optimal assignment
    on the confusion matrix above that.
    """
    if c.labels.size != g.labels.size:
        raise ValueError("clustering and ground truth index different path sets")
    if c.kappa != g.kappa:
        raise ValueError(f"cluster count {c.kappa} != ground-truth group count {g.kappa}")
    n = g.labels.size
    kappa = g.kappa
    confusion = np.zeros((kappa, kappa), dtype=int)
    np.add.at(confusion, (c.labels, g.labels), 1)
    if kappa <= _EXHAUSTIVE_KAPPA_LIMIT:
        agree = max(
            sum(confusion[k, sigma[k]] for k in range(kappa))
            for sigma in itertools.permutations(range(kappa))
        )
    else:
        from scipy.optimize import linear_sum_assignment

        rows, cols = linear_sum_assignment(-confusion)
        agree = int(confusion[rows, cols].sum())
    return (n - agree) / n


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one synthetic clustering experiment.

    `dissim` leaves K and L unset by default, so that every epoch uses the
    default windows of `DissimConfig.windows`: K = floor(sqrt(n_min)), all
    windows.
    """

    case: str = "mono"  # "mono" | "sin"
    h_values: tuple = ()
    paths_per_group: int = 5
    seeds: tuple = (0,)
    mode: str = "offline"  # "offline" | "online"
    dissim: DissimConfig = field(default_factory=lambda: DissimConfig(use_log_star=True))
    epochs: tuple = (5, 20, 50, 100)
    path_length: int = 305

    def resolved_h_values(self) -> tuple:
        if self.h_values:
            return self.h_values
        if self.case == "mono":
            return MONO_H_VALUES
        if self.case == "sin":
            return SIN_H_VALUES
        raise ValueError(f"unknown case {self.case!r}")

    @property
    def kappa(self) -> int:
        return len(self.resolved_h_values())


def group_hurst(case: str, h: float) -> HurstFunction:
    """Hurst profile of one group, stretched over the unit sampling horizon.

    Paths are sampled on t_i = i/n, so q = 1 makes the profile span the whole
    path regardless of its length.
    """
    if case == "mono":
        return HurstFunction.monotonic(h, 1.0)
    if case == "sin":
        return HurstFunction.periodic(h, 1.0)
    if case == "const":
        return HurstFunction.constant(h)
    raise ValueError(f"unknown case {case!r}")


# Full-length simulations, reused across epochs so that every epoch's data is
# a prefix extension of the previous one. Callers share the returned lists and
# must not modify them.
@functools.lru_cache(maxsize=CACHE_SIZE)
def simulate_pool(ec: ExperimentConfig, seed: int, per_group: int) -> list:
    """per_group full-length paths for each group, deterministic per seed."""
    n = ec.path_length
    return [
        [
            sample_path(group_hurst(ec.case, h), n, 1.0 / n, seed=(seed, gi, l),
                        id=f"s{seed}g{gi}p{l}")
            for l in range(1, per_group + 1)
        ]
        for gi, h in enumerate(ec.resolved_h_values())
    ]


def offline_path_count(t: int) -> int:
    """Observed prefix length at epoch t."""
    return 3 * t + 5


def build_offline_dataset(ec: ExperimentConfig, t: int, seed: int = 0):
    """All paths truncated to their first 3t+5 values, group-major order."""
    n_t = offline_path_count(t)
    if n_t > ec.path_length:
        raise ValueError(f"epoch {t} needs {n_t} samples but paths have {ec.path_length}")
    pool = simulate_pool(ec, seed, ec.paths_per_group)
    paths = [p.prefix(n_t) for group in pool for p in group]
    labels = np.repeat(np.arange(ec.kappa), ec.paths_per_group)
    return paths, GroundTruth(kappa=ec.kappa, labels=labels)


def online_group_size(t: int) -> int:
    """Paths visible per group at epoch t: 6 + floor((t-1)/10)."""
    return 6 + (t - 1) // 10


def online_path_length(t: int, l: int) -> int:
    """Length of the l-th path (1-based, within its group) at epoch t."""
    delay = max(l - 6, 0)
    return 3 * max(t - delay, 0) + 5


def build_online_dataset(ec: ExperimentConfig, t: int, seed: int = 0):
    """The paths visible at epoch t, groups interleaved in fixed arrival order."""
    if t < 1:
        raise ValueError("epoch must be >= 1")
    per_group = online_group_size(max(ec.epochs))
    pool = simulate_pool(ec, seed, per_group)
    visible = online_group_size(t)
    paths = []
    labels = []
    for l in range(1, visible + 1):
        n_l = min(online_path_length(t, l), ec.path_length)
        for gi in range(ec.kappa):
            paths.append(pool[gi][l - 1].prefix(n_l))
            labels.append(gi)
    return tuple(paths), GroundTruth(kappa=ec.kappa, labels=np.array(labels))


def run_experiment(ec: ExperimentConfig, counter: OpCounter | None = None) -> list:
    """Score every (seed, epoch) pair; returns rows (seed, t, misclassification rate).

    Each epoch pins the windows `ec.dissim.windows(n_min)` resolves on its
    shortest path's length, so one K and L serve every pair of the epoch; with
    the default configuration that is K = floor(sqrt(n_min)) and every window.
    """
    if not ec.seeds:
        raise ValueError("at least one seed is required")
    if ec.mode not in ("offline", "online"):
        raise ValueError(f"unknown mode {ec.mode!r}")
    build = build_offline_dataset if ec.mode == "offline" else build_online_dataset
    rows = []
    for seed in ec.seeds:
        for t in ec.epochs:
            paths, truth = build(ec, t, seed)
            K, L = ec.dissim.windows(min(len(p) for p in paths))
            cfg = replace(ec.dissim, K=K, L=L)
            if ec.mode == "offline":
                D = dissimilarity_matrix(paths, cfg, counter=counter)
                clustering = offline_cluster(D, ec.kappa)
            else:
                clustering = online_cluster(paths, ec.kappa, cfg, counter=counter)
            rows.append((seed, t, misclassification_rate(clustering, truth)))
    return rows


def aggregate_rates(rows) -> list:
    """Per-epoch mean and standard deviation of the rates, rows (t, mean, std)."""
    by_epoch: dict[int, list[float]] = {}
    for _, t, rate in rows:
        by_epoch.setdefault(t, []).append(rate)
    return [
        (t, float(np.mean(r)), float(np.std(r)))
        for t, r in sorted(by_epoch.items())
    ]
