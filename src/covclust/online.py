"""Online clustering: weighted vote over prefix-generated candidate centers.

At each epoch offline_cluster is run on every prefix of the arrival list, one
call per prefix; there each point takes the label of its nearest
already-labelled point, ties going to the lowest label. Each prefix contributes
kappa candidate centers (minimal cluster indexes, sorted), weighted by its
minimal inter-candidate separation. Every path is then assigned by the weighted
nearest-candidate rule. Like offline_cluster, it reads only the epoch's
dissimilarity matrix, which its caller computes once: every prefix run takes
a leading square of it.
"""

from __future__ import annotations

import numpy as np

from .dissimilarity import default_weights
from .offline import Clustering, _validate_matrix, offline_cluster


def online_cluster(D, kappa: int) -> Clustering:
    """Cluster the paths visible at one epoch, in arrival order, into kappa groups.

    D is their dissimilarity matrix, checked as `offline_cluster` checks it;
    its size gives the number of paths. kappa must lie in [1, n], checked
    before the first prefix. There is one `offline_cluster` run per prefix,
    each on the leading square of D.
    """
    D = _validate_matrix(D)
    n = D.shape[0]
    if not 1 <= kappa <= n:
        raise ValueError(f"{n} paths are fewer than kappa={kappa}" if kappa > n
                         else f"kappa={kappa} out of range for {n} points")

    iu, ju = np.triu_indices(kappa, 1)
    label_ids = np.arange(kappa)[:, None]
    candidates = []  # per prefix j: kappa sorted candidate center indexes
    for j in range(kappa, n + 1):
        # Every label occurs, and its first index is that cluster's minimal member.
        prefix = offline_cluster(D[:j, :j], kappa)
        candidates.append(np.sort(np.argmax(prefix.labels == label_ids, axis=1)))
    weights = default_weights(np.arange(kappa, n + 1))

    cand_idx = np.array(candidates)          # (num_prefixes, kappa)
    # Each prefix's gamma: the minimal separation between its candidates.
    gammas = D[cand_idx[:, iu], cand_idx[:, ju]].min(axis=1) if kappa > 1 else 0.0
    wg = weights * gammas
    eta = float(wg.sum())

    if eta == 0.0:
        # Degenerate data: every candidate set is equivalent, fall back to
        # plain nearest-center assignment against the first prefix.
        scores = D[:, cand_idx[0]]
    else:
        scores = np.einsum("j,njk->nk", wg, D[:, cand_idx]) / eta

    labels = np.argmin(scores, axis=1)
    centers = tuple(
        int(np.flatnonzero(labels == k).min()) if np.any(labels == k) else None
        for k in range(kappa)
    )
    return Clustering(kappa=kappa, labels=labels, centers=centers)
