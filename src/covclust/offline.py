"""Farthest-first center selection with nearest-member assignment.

Operates on a precomputed symmetric dissimilarity matrix; all choices are
order-statistic based, so any strictly increasing entrywise transform of the
matrix yields the same partition. Ties between centers break toward the lowest
index, ties in the assignment toward the lowest label. A `Clustering` checks
its labels when it is built, so every one that exists is a valid partition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Clustering:
    """A partition of path indexes 0..N-1 into kappa labeled clusters.

    Labels that are empty or lie outside 0..kappa-1 raise `ValueError` when
    the partition is built.
    """

    kappa: int
    labels: np.ndarray
    centers: tuple = ()

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=int)
        object.__setattr__(self, "labels", labels)
        if labels.size == 0 or labels.min() < 0 or labels.max() >= self.kappa:
            raise ValueError("labels must be non-empty and lie in 0..kappa-1")

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
    if not np.isfinite(D).all():
        raise ValueError("dissimilarity matrix contains non-finite entries")
    if not (D == D.T).all():
        raise ValueError("dissimilarity matrix must be symmetric")
    if D.diagonal().any():
        raise ValueError("dissimilarity matrix must have a zero diagonal")
    return D


def offline_cluster(D, kappa: int) -> Clustering:
    """Cluster N points into kappa groups from their dissimilarity matrix.

    The two mutually farthest points (the first maximum of the strict upper
    triangle, row by row) seed the first two clusters; each further center
    maximizes the distance to the chosen centers. Every other point, in index
    order, takes the label of its nearest already-labelled point, that is, the
    nearest center or lower-indexed point, ties going to the lowest label.
    This is the same as joining the cluster with the nearest current member
    before later points are processed. The labels come from one pass over
    each point's nearest labelled points, in row order, so each label a
    point copies is already final.

    Every call validates D first, in a fixed order: square shape, finite
    entries, exact symmetry, zero diagonal. The first check that fails raises
    its ValueError, so a matrix with several faults reports the earliest.
    """
    D = _validate_matrix(D)
    n = D.shape[0]
    if not (1 <= kappa <= n):
        raise ValueError(f"kappa={kappa} out of range for {n} points")

    if kappa == 1:
        return Clustering(kappa=1, labels=np.zeros(n, dtype=int), centers=(0,))

    idx = np.arange(n)
    # D is finite, so the masked lower triangle never wins, even when every
    # entry above the diagonal is negative.
    first, second = divmod(int(np.argmax(np.where(idx[:, None] < idx, D, -np.inf))), n)
    centers = [first, second]
    # D is symmetric, so each point's distances are read off its contiguous row.
    nearest = np.minimum(D[first], D[second])
    for _ in range(2, kappa):
        # Chosen centers sit at distance 0 from themselves; mask them so the
        # selection always yields distinct centers even on duplicated points.
        nearest[centers] = -np.inf
        c = int(np.argmax(nearest))
        centers.append(c)
        np.minimum(nearest, D[c], out=nearest)

    is_center = np.zeros(n, dtype=bool)
    is_center[centers] = True
    rest = np.flatnonzero(~is_center)
    # Row r holds the distances from rest[r] to the points labelled before it.
    near = np.where(is_center | (idx < rest[:, None]), D[rest], np.inf)
    # Hits come row by row, so every j that row r reads is a center or a
    # point that an earlier row labelled; kappa is above every label.
    rows, cols = np.nonzero(near == near.min(axis=1, keepdims=True))
    labels = [kappa] * n
    for k, c in enumerate(centers):
        labels[c] = k
    for i, j in zip(rest[rows].tolist(), cols.tolist()):
        if labels[j] < labels[i]:
            labels[i] = labels[j]
    return Clustering(kappa=kappa, labels=np.array(labels), centers=tuple(centers))
