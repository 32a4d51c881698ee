"""Ground-truth bookkeeping, misclassification scoring, and synthetic experiments.

The synthetic schedules grow a fixed pool of simulated paths over epochs:
offline datasets truncate every path to its first 3t+5 values; online
datasets additionally grow the number of visible paths per group by one every
10 epochs, interleaving groups in a fixed global arrival order.

Each epoch is clustered with the paper's localized measure d_star_hat, its
windows resolved once, by `DissimConfig().windows`, on the length n_min of
the epoch's shortest path: K = floor(sqrt(n_min)) and all n_min - K - 1
windows are averaged.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dissimilarity import DissimConfig, InfeasibleError, dissimilarity_matrix
from .hurst import HurstFunction
from .offline import Clustering, offline_cluster
from .online import online_cluster
from .processes import cov_fits, sample_path

# Amplitude h of each group's Hurst profile, by case; one group per entry.
GROUP_H_VALUES = {
    "mono": (-0.4, -0.2, 0.0, 0.2, 0.4),
    "sin": (0.4, 0.2, 0.0, -0.2, -0.4),
}

_EXHAUSTIVE_KAPPA_LIMIT = 7


class GroundTruth(Clustering):
    """The reference partition of path indexes into kappa groups: a `Clustering`
    without centers, whose labels are checked when it is built."""


@functools.cache
def _bijections(kappa: int) -> np.ndarray:
    """All kappa! label bijections as rows, read-only and shared by every call."""
    sigmas = np.array(list(itertools.permutations(range(kappa))))
    sigmas.flags.writeable = False
    return sigmas


def misclassification_rate(c: Clustering, g: GroundTruth) -> float:
    """Minimal fraction of wrongly grouped paths over label bijections.

    Exhaustive over the kappa! bijections for small kappa, scored together as
    one gather from the integer confusion matrix; optimal assignment on the
    confusion matrix above that. Both partitions checked their labels when
    they were built; paths or kappas that differ raise ValueError.
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
        agree = int(confusion[np.arange(kappa), _bijections(kappa)].sum(axis=1).max())
    else:
        from scipy.optimize import linear_sum_assignment

        rows, cols = linear_sum_assignment(-confusion)
        agree = int(confusion[rows, cols].sum())
    return (n - agree) / n


def _ints(values, low: int) -> bool:
    """Whether values is a non-empty list or tuple of ints >= low; a bool is no int here."""
    return isinstance(values, (list, tuple)) and len(values) > 0 and all(
        isinstance(v, int) and not isinstance(v, bool) and v >= low for v in values)


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one synthetic clustering experiment, checked when built.

    The first bad field of case, mode, seeds, epochs, paths_per_group,
    path_length and log_star, in that order, raises `ValueError` "<key> must
    be ...". Lists of seeds or epochs become tuples. log_star sets
    `DissimConfig.use_log_star`; the windows are always the default ones of
    `DissimConfig.windows`.
    """

    case: str = "mono"  # a key of GROUP_H_VALUES
    paths_per_group: int = 5
    seeds: tuple = (0,)
    mode: str = "offline"  # "offline" | "online"
    log_star: bool = True
    epochs: tuple = (5, 20, 50, 100)
    path_length: int = 305

    def __post_init__(self):
        for key, value, ok, expected in (
            ("case", self.case, self.case in tuple(GROUP_H_VALUES), " or ".join(GROUP_H_VALUES)),
            ("mode", self.mode, self.mode in ("offline", "online"), "offline or online"),
            ("seeds", self.seeds, _ints(self.seeds, 0),
             "a non-empty list of non-negative integers"),
            ("epochs", self.epochs, _ints(self.epochs, 1), "a non-empty list of integers >= 1"),
            ("paths_per_group", self.paths_per_group, _ints([self.paths_per_group], 1),
             "an integer >= 1"),
            ("path_length", self.path_length,
             _ints([self.path_length], 2) and cov_fits(self.path_length),
             "an integer >= 2 whose n x n covariance fits the address space"),
            ("log_star", self.log_star, isinstance(self.log_star, bool), "true or false"),
        ):
            if not ok:
                raise ValueError(f"{key} must be {expected}, got {value!r}")
        object.__setattr__(self, "seeds", tuple(self.seeds))
        object.__setattr__(self, "epochs", tuple(self.epochs))

    @property
    def kappa(self) -> int:
        return len(GROUP_H_VALUES[self.case])


def group_hurst(case: str, h: float) -> HurstFunction:
    """Hurst profile of one group, stretched over the unit sampling horizon.

    Paths are sampled on t_i = i/n, so q = 1 makes the profile span the whole
    path regardless of its length.
    """
    if case == "mono":
        return HurstFunction.monotonic(h, 1.0)
    if case == "sin":
        return HurstFunction.periodic(h, 1.0)
    raise ValueError(f"unknown case {case!r}")


# Full-length simulations; every epoch of a seed is cut from the same pool, so
# that each epoch's data is a prefix extension of the previous one.
def simulate_pool(ec: ExperimentConfig, seed: int, per_group: int) -> list:
    """per_group full-length paths for each group, deterministic per seed."""
    n = ec.path_length
    return [
        [
            sample_path(group_hurst(ec.case, h), n, 1.0 / n, seed=(seed, gi, l),
                        id=f"s{seed}g{gi}p{l}")
            for l in range(1, per_group + 1)
        ]
        for gi, h in enumerate(GROUP_H_VALUES[ec.case])
    ]


def offline_path_count(t: int) -> int:
    """Observed prefix length at epoch t."""
    return 3 * t + 5


def build_offline_dataset(pool: list, t: int):
    """Every path of the pool truncated to its first 3t+5 values, group-major order."""
    n_t = offline_path_count(t)
    paths = [p.prefix(n_t) for group in pool for p in group]
    labels = np.repeat(np.arange(len(pool)), len(pool[0]))
    return paths, GroundTruth(kappa=len(pool), labels=labels)


def online_group_size(t: int) -> int:
    """Paths visible per group at epoch t: 6 + floor((t-1)/10)."""
    return 6 + (t - 1) // 10


def online_path_length(t: int, l: int) -> int:
    """Length of the l-th path (1-based, within its group) at epoch t."""
    delay = max(l - 6, 0)
    return 3 * max(t - delay, 0) + 5


def build_online_dataset(pool: list, t: int):
    """The pool's paths visible at epoch t, groups interleaved in fixed arrival order."""
    paths = []
    labels = []
    for l in range(1, online_group_size(t) + 1):
        n_l = online_path_length(t, l)
        for gi, group in enumerate(pool):
            paths.append(group[l - 1].prefix(n_l))
            labels.append(gi)
    return tuple(paths), GroundTruth(kappa=len(pool), labels=np.array(labels))


# One clustered epoch of one seed: its pinned windows, D, the clustering and the truth.
Epoch = NamedTuple("Epoch", [("t", int), ("cfg", DissimConfig), ("D", np.ndarray),
                             ("clustering", Clustering), ("truth", GroundTruth)])


def experiment_epochs(ec: ExperimentConfig, seed: int):
    """Cluster every epoch of one seed, in order, yielding one `Epoch` each.

    An epoch t whose 3t+5 values, the longest path of the epoch in either
    mode, exceed `ec.path_length` raises `InfeasibleError` before any path is
    sampled. The seed draws one pool, `ec.paths_per_group` paths per group
    offline and online_group_size of the last epoch online, and every epoch
    is cut from it. Each epoch pins the windows `DissimConfig().windows(n_min)`
    resolves on its shortest path's length, K = floor(sqrt(n_min)) and every
    window, so one K and L serve every pair of the epoch; `ec.log_star` sets
    use_log_star. D is computed once per epoch, and the mode's step,
    `offline_cluster` or `online_cluster`, clusters it.
    """
    for t in ec.epochs:
        n_t = offline_path_count(t)
        if n_t > ec.path_length:
            raise InfeasibleError(f"epoch {t} needs {n_t} samples but paths have {ec.path_length}")
    if ec.mode == "offline":
        build, per_group, step = build_offline_dataset, ec.paths_per_group, offline_cluster
    else:
        build, per_group = build_online_dataset, online_group_size(max(ec.epochs))
        step = online_cluster
    pool = simulate_pool(ec, seed, per_group)
    for t in ec.epochs:
        paths, truth = build(pool, t)
        K, L = DissimConfig().windows(min(len(p) for p in paths))
        cfg = DissimConfig(K=K, L=L, use_log_star=ec.log_star)
        D = dissimilarity_matrix(paths, cfg)
        yield Epoch(t, cfg, D, step(D, ec.kappa), truth)


def run_experiment(ec: ExperimentConfig) -> list:
    """Score every (seed, epoch) pair; returns rows (seed, t, misclassification rate).

    The rows reduce the records of `experiment_epochs`, seed by seed, so an
    infeasible epoch raises before any path is sampled and no pool outlives
    its seed.
    """
    return [(seed, e.t, misclassification_rate(e.clustering, e.truth))
            for seed in ec.seeds for e in experiment_epochs(ec, seed)]


def aggregate_rates(rows) -> list:
    """Per-epoch mean and standard deviation of the rates, rows (t, mean, std)."""
    by_epoch: dict[int, list[float]] = {}
    for _, t, rate in rows:
        by_epoch.setdefault(t, []).append(rate)
    return [
        (t, float(np.mean(r)), float(np.std(r)))
        for t, r in sorted(by_epoch.items())
    ]
