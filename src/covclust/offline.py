"""Farthest-first center selection with nearest-member assignment.

Operates on a precomputed symmetric dissimilarity matrix; all choices are
order-statistic based, so any strictly increasing entrywise transform of the
matrix yields the same partition. Ties break toward the lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Clustering:
    """A partition of path indexes 0..N-1 into kappa labeled clusters."""

    kappa: int
    labels: np.ndarray
    centers: tuple

    def __post_init__(self):
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=int))

    def members(self, k: int) -> np.ndarray:
        return np.flatnonzero(self.labels == k)

    def as_partition(self) -> frozenset:
        """Label-free view: the set of nonempty clusters as index sets."""
        return frozenset(
            frozenset(self.members(k).tolist())
            for k in range(self.kappa)
            if self.members(k).size
        )


def _validate_matrix(D: np.ndarray) -> np.ndarray:
    D = np.asarray(D, dtype=float)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise ValueError("dissimilarity matrix must be square")
    if not np.all(np.isfinite(D)):
        raise ValueError("dissimilarity matrix contains non-finite entries")
    if not np.array_equal(D, D.T):
        raise ValueError("dissimilarity matrix must be symmetric")
    if np.any(np.diag(D) != 0):
        raise ValueError("dissimilarity matrix must have a zero diagonal")
    return D


def offline_cluster(D, kappa: int) -> Clustering:
    """Cluster N points into kappa groups from their dissimilarity matrix.

    The two mutually farthest points seed the first two clusters; each further
    center maximizes the distance to the chosen centers; remaining points are
    assigned in index order to the cluster with the nearest current member,
    joining it before later points are processed.
    """
    D = _validate_matrix(D)
    n = D.shape[0]
    if not (1 <= kappa <= n):
        raise ValueError(f"kappa={kappa} out of range for {n} points")

    if kappa == 1:
        return Clustering(kappa=1, labels=np.zeros(n, dtype=int), centers=(0,))

    iu, ju = np.triu_indices(n, 1)
    best = int(np.argmax(D[iu, ju]))
    centers = [int(iu[best]), int(ju[best])]
    for _ in range(2, kappa):
        nearest = D[:, centers].min(axis=1)
        # Chosen centers sit at distance 0 from themselves; mask them so the
        # selection always yields distinct centers even on duplicated points.
        nearest[centers] = -np.inf
        centers.append(int(np.argmax(nearest)))

    # near[i, k] is the distance from i to the nearest current member of
    # cluster k; a point joining k lowers column k to its own distances.
    labels = np.full(n, -1, dtype=int)
    labels[centers] = np.arange(kappa)
    near = D[:, centers]
    for i in np.flatnonzero(labels < 0):
        k = int(np.argmin(near[i]))
        labels[i] = k
        np.minimum(near[:, k], D[:, i], out=near[:, k])
    return Clustering(kappa=kappa, labels=labels, centers=tuple(centers))
