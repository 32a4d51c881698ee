"""Deliberately slow, literal reference implementations used as test oracles."""

import csv
import math
from pathlib import Path

import numpy as np
from scipy.special import gamma as gamma_vec

from covclust.dissimilarity import default_mn, default_weights
from covclust.offline import Clustering
from covclust.processes import SamplePath, d_factor
from covclust.seriesio import HEADER, SchemaError


def naive_nu(values, l, m):
    """Window-averaged outer products, 1-based start l, window size m."""
    n = len(values)
    acc = np.zeros((m, m))
    for i in range(l, n - m + 2):
        w = np.asarray(values[i - 1 : i - 1 + m], dtype=float)
        acc += np.outer(w, w)
    return acc / (n - m - l + 2)


def naive_log_star(mat):
    out = np.zeros_like(mat)
    for idx in np.ndindex(mat.shape):
        x = mat[idx]
        if x > 0:
            out[idx] = math.log(x)
        elif x < 0:
            out[idx] = -math.log(-x)
    return out


def masked_log_star(x, out=None):
    """log* with masked ufunc passes: log where |x| != 0, then negation where x < 0."""
    a = np.array(x, dtype=float) if out is None else out
    neg = np.less(x, 0)
    np.abs(x, out=a)
    np.log(a, out=a, where=a != 0)
    np.negative(a, out=a, where=neg)
    return float(a) if a.ndim == 0 else a


def naive_d_hat(v1, v2, use_log_star=False):
    """Literal double loop over window sizes and starts."""
    n = min(len(v1), len(v2))
    m_n = max(1, min(int(math.floor(math.log(n))), n))
    total = 0.0
    for m in range(1, m_n + 1):
        for l in range(1, n - m + 2):
            a = naive_nu(v1[:n], l, m)
            b = naive_nu(v2[:n], l, m)
            if use_log_star:
                a = naive_log_star(a)
                b = naive_log_star(b)
            w = (1.0 / (m * m * (m + 1) ** 2)) * (1.0 / (l * l * (l + 1) ** 2))
            total += w * np.linalg.norm(a - b)
    return total


def _masked_log_star(arr):
    out = np.zeros_like(arr)
    pos = arr > 0
    neg = arr < 0
    out[pos] = np.log(arr[pos])
    out[neg] = -np.log(-arr[neg])
    return out


def _single_path_features(x, n_w, L, cfg):
    """Per window size m: the (L, n_w-m+1, m*m) covariances of one path's windows."""
    out = []
    for m in range(1, default_mn(n_w) + 1):
        n_l = n_w - m + 1
        subs = np.lib.stride_tricks.sliding_window_view(x[: n_w + L - 1], m)
        outers = subs[:, :, None] * subs[:, None, :]
        per_window = np.lib.stride_tricks.sliding_window_view(outers, n_l, axis=0)
        suffix = np.cumsum(per_window[..., ::-1], axis=-1)[..., ::-1]
        nu = np.moveaxis(suffix / np.arange(n_l, 0, -1, dtype=float), -1, 1)
        if cfg.use_log_star:
            nu = _masked_log_star(nu)
        out.append(nu.reshape(L, n_l, m * m))
    return out


def fullstorage_dissimilarity_matrix(paths, cfg):
    """D from all m*m entries of each nu, one path's features and one pair at a time.

    Features are cached per (path, K, L); each pair is reduced on its own,
    in index order.
    """
    n_paths = len(paths)
    features = {}
    out = np.zeros((n_paths, n_paths))
    for i in range(n_paths):
        for j in range(i + 1, n_paths):
            K, L = cfg.windows(min(len(paths[i]), len(paths[j])))
            for k in (i, j):
                if (k, K, L) not in features:
                    features[k, K, L] = _single_path_features(np.diff(paths[k].values), K + 1, L, cfg)
            weights = [float(default_weights(m)) * default_weights(np.arange(1, K - m + 3))
                       for m in range(1, default_mn(K + 1) + 1)]
            per_window = 0.0
            for a, b, w in zip(features[i, K, L], features[j, K, L], weights):
                diff = a - b
                per_window = per_window + np.sqrt(np.einsum("slk,slk->sl", diff, diff)) @ w
            out[i, j] = out[j, i] = float(np.sum(per_window)) / L
    return out


def _single_path_planes(x, n_w, L, cfg):
    """Per window size m: the (m(m+1)/2, L, n_w-m+1) feature planes of one path's windows.

    One plane per upper-triangle entry (r, c) of nu, in np.triu_indices order,
    built from its own products; off-diagonal planes are multiplied by sqrt(2)
    after log*.
    """
    out = []
    for m in range(1, default_mn(n_w) + 1):
        n_l = n_w - m + 1
        planes = []
        for r, c in zip(*np.triu_indices(m)):
            products = x[r : r + n_w + L - m] * x[c : c + n_w + L - m]
            per_window = np.lib.stride_tricks.sliding_window_view(products, n_l)
            nu = np.cumsum(per_window[:, ::-1], axis=1)[:, ::-1] / np.arange(n_l, 0, -1, dtype=float)
            if cfg.use_log_star:
                nu = _masked_log_star(nu)
            planes.append(nu if r == c else nu * math.sqrt(2.0))
        out.append(planes)
    return out


def pairwise_dissimilarity_matrix(paths, cfg):
    """D from upper-triangle feature planes, one path's features and one pair at a time.

    Each pair's squared plane differences are added one plane after another,
    in np.triu_indices order.
    """
    n_paths = len(paths)
    features = {}
    out = np.zeros((n_paths, n_paths))
    for i in range(n_paths):
        for j in range(i + 1, n_paths):
            K, L = cfg.windows(min(len(paths[i]), len(paths[j])))
            for k in (i, j):
                if (k, K, L) not in features:
                    features[k, K, L] = _single_path_planes(np.diff(paths[k].values), K + 1, L, cfg)
            weights = [float(default_weights(m)) * default_weights(np.arange(1, K - m + 3))
                       for m in range(1, default_mn(K + 1) + 1)]
            per_window = 0.0
            for a, b, w in zip(features[i, K, L], features[j, K, L], weights):
                sq = (a[0] - b[0]) ** 2
                for pa, pb in zip(a[1:], b[1:]):
                    sq = sq + (pa - pb) ** 2
                per_window = per_window + np.sqrt(sq) @ w
            out[i, j] = out[j, i] = float(np.sum(per_window)) / L
    return out


def memberwise_offline_cluster(D, kappa):
    """Farthest-first seeding, then each point joins the cluster of its nearest member.

    Keeps every cluster's member list and takes a fresh minimum over it for
    each point, in index order.
    """
    D = np.asarray(D, dtype=float)
    n = D.shape[0]
    if kappa == 1:
        return Clustering(kappa=1, labels=np.zeros(n, dtype=int), centers=(0,))
    iu, ju = np.triu_indices(n, 1)
    best = int(np.argmax(D[iu, ju]))
    centers = [int(iu[best]), int(ju[best])]
    for _ in range(2, kappa):
        nearest = D[:, centers].min(axis=1)
        nearest[centers] = -np.inf
        centers.append(int(np.argmax(nearest)))
    labels = np.full(n, -1, dtype=int)
    members = []
    for k, c in enumerate(centers):
        labels[c] = k
        members.append([c])
    for i in range(n):
        if labels[i] >= 0:
            continue
        nearest = [D[i, m].min() for m in members]
        k = int(np.argmin(nearest))
        labels[i] = k
        members[k].append(i)
    return Clustering(kappa=kappa, labels=labels, centers=tuple(centers))


def prefixwise_online_cluster(D, kappa):
    """The online vote with one farthest-first run per prefix, candidates read off member lists.

    Each prefix is clustered by memberwise_offline_cluster; its candidates are
    the sorted minimal members of its clusters and its gamma the least
    separation between them, taken from a fresh kappa x kappa submatrix.
    """
    D = np.asarray(D, dtype=float)
    n = D.shape[0]
    candidates = []
    gammas = []
    weights = []
    for j in range(kappa, n + 1):
        prefix = memberwise_offline_cluster(D[:j, :j], kappa)
        cand = sorted(int(prefix.members(k).min()) for k in range(kappa))
        candidates.append(cand)
        sub = D[np.ix_(cand, cand)]
        gammas.append(float(sub[np.triu_indices(kappa, 1)].min()) if kappa > 1 else 0.0)
        weights.append(float(default_weights(j)))
    cand_idx = np.array(candidates)
    wg = np.array(weights) * np.array(gammas)
    eta = float(wg.sum())
    if eta == 0.0:
        scores = D[:, cand_idx[0]]
    else:
        scores = np.einsum("j,njk->nk", wg, D[:, cand_idx]) / eta
    labels = np.argmin(scores, axis=1)
    centers = tuple(
        int(np.flatnonzero(labels == k).min()) if np.any(labels == k) else None
        for k in range(kappa)
    )
    return Clustering(kappa=kappa, labels=labels, centers=centers)


def mbm_cov(f, s, t):
    """Population covariance Cov(W(s), W(t)) of the mBm with Hurst function f."""
    hs, ht = f(s), f(t)
    a = hs + ht
    return d_factor(hs, ht) * (abs(t) ** a + abs(s) ** a - abs(t - s) ** a)


def fbm_increment_cov(h, var1, i, j, delta):
    """Autocovariance of unit-lag fBm increments at sampling indexes i and j.

    Depends on (i, j) only through |i - j|; var1 is the variance of the
    process at time 1.
    """
    k = i - j
    return (
        var1
        * delta ** (2 * h)
        / 2.0
        * (abs(k - 1) ** (2 * h) + abs(k + 1) ** (2 * h) - 2 * abs(k) ** (2 * h))
    )


def dense_cov_matrix(f, times):
    """The mBm covariance as one dense n x n expression, mirrored from its upper triangle."""
    times = np.asarray(times, dtype=float)
    h = f.values_on(times)
    g = gamma_vec(2.0 * h + 1.0) * np.sin(np.pi * h)
    a = h[:, None] + h[None, :]
    d = np.sqrt(np.outer(g, g)) / (2.0 * gamma_vec(a + 1.0) * np.sin(np.pi * a / 2.0))
    tt = np.abs(times)
    cov = d * (tt[None, :] ** a + tt[:, None] ** a - np.abs(times[None, :] - times[:, None]) ** a)
    return np.triu(cov) + np.triu(cov, 1).T


def rowwise_write_series(paths, destination):
    """One csv row write per value."""
    with Path(destination).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(HEADER)
        for p in paths:
            for i, v in enumerate(p.values):
                writer.writerow([p.id, i, format(float(v), ".17g")])


def rowwise_read_series(source, ragged_ok=False):
    """Every row parsed and checked in file order; each series then checked in turn."""
    source = Path(source)
    rows = {}
    with source.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{source}: empty file") from None
        if header != HEADER:
            raise SchemaError(f"{source}: line 1: expected header {','.join(HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise SchemaError(f"{source}: line {lineno}: expected 3 columns, got {len(row)}")
            sid = row[0]
            try:
                t_index = int(row[1])
            except ValueError:
                raise SchemaError(f"{source}: line {lineno}: non-integer t_index {row[1]!r}") from None
            try:
                value = float(row[2])
            except ValueError:
                raise SchemaError(f"{source}: line {lineno}: non-numeric value {row[2]!r}") from None
            if not math.isfinite(value):
                raise SchemaError(f"{source}: line {lineno}: non-finite value {row[2]!r}")
            if t_index < 0:
                raise SchemaError(f"{source}: line {lineno}: negative t_index {t_index}")
            series = rows.setdefault(sid, {})
            if t_index in series:
                raise SchemaError(
                    f"{source}: line {lineno}: duplicate (series_id, t_index) = ({sid!r}, {t_index})"
                )
            series[t_index] = value
    if not rows:
        raise SchemaError(f"{source}: no data rows")
    paths = []
    for sid, series in rows.items():
        n = len(series)
        missing = set(range(n)) - series.keys()
        if missing:
            raise SchemaError(
                f"{source}: series {sid!r}: t_index gap, missing {sorted(missing)[:5]}"
            )
        if n < 2:
            raise SchemaError(f"{source}: series {sid!r}: needs at least 2 points")
        paths.append(SamplePath(id=sid, values=np.array([series[i] for i in range(n)])))
    lengths = {len(p) for p in paths}
    if len(lengths) > 1 and not ragged_ok:
        raise SchemaError(
            f"{source}: ragged series lengths {sorted(lengths)} are only allowed in online mode"
        )
    return paths
