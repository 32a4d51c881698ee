"""Online clustering: weighted vote over prefix-generated candidate centers.

At each epoch offline_cluster is run on every prefix of the arrival list, one
call per prefix; there each point takes the label of its nearest
already-labelled point, ties going to the lowest label. Each prefix contributes
kappa candidate centers (minimal cluster indexes, sorted), weighted by its
minimal inter-candidate separation. Every path is then assigned by the weighted
nearest-candidate rule. All prefix runs share one dissimilarity matrix,
computed serially once per epoch.
"""

from __future__ import annotations

import numpy as np

from .dissimilarity import DissimConfig, OpCounter, default_weights, dissimilarity_matrix
from .offline import Clustering, offline_cluster


def online_cluster(paths, kappa: int, cfg: DissimConfig = DissimConfig(),
                   counter: OpCounter | None = None,
                   D: np.ndarray | None = None) -> Clustering:
    """Cluster the sample paths visible at one epoch, in arrival order, into kappa groups.

    A precomputed dissimilarity matrix over the paths may be passed in;
    otherwise one is computed here, serially, and shared by all prefix runs.
    """
    n = len(paths)
    if n < kappa:
        raise ValueError(f"{n} paths are fewer than kappa={kappa}")
    if D is None:
        D = dissimilarity_matrix(paths, cfg, counter=counter)

    iu, ju = np.triu_indices(kappa, 1)
    candidates = []  # per prefix j: kappa sorted candidate center indexes
    weights = []
    for j in range(kappa, n + 1):
        # Every label occurs, and its first index is that cluster's minimal member.
        prefix = offline_cluster(D[:j, :j], kappa)
        candidates.append(np.sort(np.unique(prefix.labels, return_index=True)[1]))
        weights.append(float(default_weights(j)))

    cand_idx = np.array(candidates)          # (num_prefixes, kappa)
    # Each prefix's gamma: the minimal separation between its candidates.
    gammas = D[cand_idx[:, iu], cand_idx[:, ju]].min(axis=1) if kappa > 1 else 0.0
    wg = np.array(weights) * gammas
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
