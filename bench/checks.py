"""Output checks for benchmark ops, and a literal reference for one D entry.

Each check returns a list of problems; an op with any problem counts as failed.
"""

from __future__ import annotations

import math

import numpy as np

from covclust.dissimilarity import d_hat_rho_count

NAIVE_RTOL = 1e-12


def check_matrix(call) -> list:
    """D must be square over its paths, finite, exactly symmetric, zero on the diagonal."""
    D = np.asarray(call.result)
    n = len(call.args["paths"])
    problems = []
    if D.shape != (n, n):
        return [f"D has shape {D.shape}, expected ({n}, {n})"]
    if not np.all(np.isfinite(D)):
        problems.append("D has non-finite entries")
    if not np.array_equal(D, D.T):
        problems.append("D is not exactly symmetric")
    if np.any(np.diag(D) != 0):
        problems.append("D has a nonzero diagonal entry")
    if np.any(D < 0):
        problems.append("D has a negative entry")
    return problems


def check_partition(clustering, n: int, kappa: int, every_cluster_used: bool) -> list:
    """Labels must assign each of n points to one of kappa clusters, consistently with centers."""
    labels = np.asarray(clustering.labels)
    if clustering.kappa != kappa or labels.shape != (n,):
        return [f"clustering has kappa={clustering.kappa}, {labels.shape} labels; "
                f"expected kappa={kappa}, ({n},)"]
    if labels.size and (labels.min() < 0 or labels.max() >= kappa):
        return ["labels outside 0..kappa-1"]
    used = set(labels.tolist())
    if every_cluster_used and used != set(range(kappa)):
        return [f"only clusters {sorted(used)} of {kappa} are used"]
    if len(clustering.centers) != kappa:
        return [f"{len(clustering.centers)} centers for kappa={kappa}"]
    for k, c in enumerate(clustering.centers):
        if c is None:
            if k in used:
                return [f"cluster {k} has members but no center"]
        elif labels[c] != k:
            return [f"center {c} of cluster {k} carries label {labels[c]}"]
    return []


def expected_rho(call) -> int:
    """Closed-form rho count of one dissimilarity_matrix call.

    Each pair averages L d_hat calls on windows of K+1 increments, where K is
    resolved from the shorter path of the pair.
    """
    paths = call.args["paths"]
    cfg = call.args["cfg"]
    lengths = [len(p) for p in paths]
    total = 0
    for i in range(len(lengths)):
        for j in range(i + 1, len(lengths)):
            K = cfg.check_windows(min(lengths[i], lengths[j]))
            total += cfg.L * d_hat_rho_count(K + 1, cfg)
    return total


# -- literal reference -------------------------------------------------------

def _naive_nu(x, l, m):
    """Average of the outer products of the length-m windows starting at l..n-m+1 (1-based)."""
    n = len(x)
    starts = range(l, n - m + 2)
    count = n - m - l + 2
    return [[math.fsum(x[i - 1 + a] * x[i - 1 + b] for i in starts) / count
             for b in range(m)] for a in range(m)]


def _log_star(v):
    if v > 0:
        return math.log(v)
    if v < 0:
        return -math.log(-v)
    return 0.0


def _naive_d_hat(x1, x2, use_log_star):
    n = min(len(x1), len(x2))
    x1, x2 = x1[:n], x2[:n]
    m_n = max(1, min(int(math.floor(math.log(n))), n))
    terms = []
    for m in range(1, m_n + 1):
        for l in range(1, n - m + 2):
            a = _naive_nu(x1, l, m)
            b = _naive_nu(x2, l, m)
            sq = []
            for r in range(m):
                for c in range(m):
                    u, v = a[r][c], b[r][c]
                    if use_log_star:
                        u, v = _log_star(u), _log_star(v)
                    sq.append((u - v) ** 2)
            weight = 1.0 / (m * m * (m + 1) ** 2) / (l * l * (l + 1) ** 2)
            terms.append(weight * math.sqrt(math.fsum(sq)))
    return math.fsum(terms)


def naive_d_star_hat(z1, z2, K: int, L: int, use_log_star: bool) -> float:
    """Mean over windows i = 1..L of d_hat between the K+1 increments anchored at i."""
    v1 = [float(v) for v in z1.values]
    v2 = [float(v) for v in z2.values]
    total = []
    for i in range(1, L + 1):
        x1 = [v1[i + k] - v1[i - 1 + k] for k in range(K + 1)]
        x2 = [v2[i + k] - v2[i - 1 + k] for k in range(K + 1)]
        total.append(_naive_d_hat(x1, x2, use_log_star))
    return math.fsum(total) / L


def check_against_naive(call) -> list:
    """Entry (0, 1) of D must match the literal reference to NAIVE_RTOL."""
    paths = call.args["paths"]
    cfg = call.args["cfg"]
    K = cfg.check_windows(min(len(paths[0]), len(paths[1])))
    ref = naive_d_star_hat(paths[0], paths[1], K, cfg.L, cfg.use_log_star)
    got = float(np.asarray(call.result)[0, 1])
    err = abs(got - ref) / abs(ref)
    if not err <= NAIVE_RTOL:
        return [f"D[0,1]={got!r} differs from the naive reference {ref!r} "
                f"by {err:.3g} relative (limit {NAIVE_RTOL:g})"]
    return []


def check_round_trip(written, read) -> list:
    """The series read back must equal the series written, id by id and bit by bit."""
    if [p.id for p in written] != [p.id for p in read]:
        return ["series ids differ after the round trip"]
    for a, b in zip(written, read):
        if a.values.dtype != b.values.dtype or a.values.tobytes() != b.values.tobytes():
            return [f"series {a.id!r} values differ after the round trip"]
    return []
