"""Deliberately slow, literal reference implementations used as test oracles."""

import csv
import itertools
import math
from pathlib import Path

import numpy as np

from covclust.dissimilarity import DissimConfig, default_mn, default_weights
from covclust.hurst import HurstDomainError
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


def masked_log_star(x, out=None):
    """log* with masked ufunc passes: log where |x| != 0, then negation where x < 0.

    The only log* of the oracles; written into `out` when it is given, which may be x itself.
    """
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
                a = masked_log_star(a)
                b = masked_log_star(b)
            w = (1.0 / (m * m * (m + 1) ** 2)) * (1.0 / (l * l * (l + 1) ** 2))
            total += w * np.linalg.norm(a - b)
    return total


def naive_d_star_hat(z1, z2, K, L, use_log_star=False, H1=None, H2=None):
    """Mean of naive_d_hat over windows i = 1..L of the K+1 increments of samples i..i+K+1.

    With H1 and H2, window i of a path z is divided by z.delta_t ** H(i * z.delta_t),
    which makes it d_tilde_star.
    """
    def window(z, H, i):
        x = np.diff(z.values[i - 1 : i + K + 1])
        return x if H is None else x / z.delta_t ** H(i * z.delta_t)

    return float(np.mean([naive_d_hat(window(z1, H1, i), window(z2, H2, i), use_log_star)
                          for i in range(1, L + 1)]))


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
            nu = masked_log_star(nu)
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


def log_variance_dissimilarity_matrix(paths, cfg=DissimConfig()):
    """The log-variance baseline: for each ordered pair, the mean over the pair's
    L windows of |ln v_1(s) - ln v_2(s)|, v(s) the mean squared increment of window s.

    (K, L) are cfg.windows of the pair's shorter path, and window s (1-based)
    holds the K + 1 increments of samples s..s+K+1, as in D. ln v(s) is
    2H(t) ln(delta) plus a constant, the local quadratic-variation estimate of
    H(t), so this is the yardstick D's covariance windows must beat. Every
    entry, the diagonal and both orders of each pair included, is computed
    on its own.
    """
    out = np.zeros((len(paths), len(paths)))
    for i, a in enumerate(paths):
        for j, b in enumerate(paths):
            K, L = cfg.windows(min(len(a), len(b)))
            total = 0.0
            for s in range(1, L + 1):
                v1, v2 = (float(np.mean(np.diff(p.values[s - 1 : s + K + 1]) ** 2)) for p in (a, b))
                total += abs(math.log(v1) - math.log(v2))
            out[i, j] = total / L
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


def permutationwise_misclassification_rate(c, g):
    """Misclassification rate scored one label bijection at a time, in Python."""
    n = g.labels.size
    kappa = g.kappa
    confusion = np.zeros((kappa, kappa), dtype=int)
    np.add.at(confusion, (c.labels, g.labels), 1)
    agree = max(
        sum(confusion[k, sigma[k]] for k in range(kappa))
        for sigma in itertools.permutations(range(kappa))
    )
    return (n - agree) / n


def naive_hurst(f, t):
    """H(t) of a HurstFunction by its scalar per-kind formula, at one instant."""
    if f.kind == "constant":
        return f.h
    if not (0.0 <= t <= f.q):
        raise HurstDomainError(f"time {t} outside domain [0, {f.q}]")
    if f.kind == "monotonic":
        value = 0.5 + f.h * t / f.q
    elif f.kind == "periodic":
        value = 0.5 + f.h * np.sin(np.pi * t / f.q)
    else:
        raise ValueError(f"unknown Hurst variant {f.kind!r}")
    if not (0.0 < value < 1.0):
        raise HurstDomainError(f"H({t}): value {value} is outside (0, 1)")
    return float(value)


def mbm_cov(f, s, t):
    """Population covariance Cov(W(s), W(t)) of the mBm with Hurst function f."""
    hs, ht = naive_hurst(f, s), naive_hurst(f, t)
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
    from scipy.special import gamma as gamma_vec  # here, so that importing the oracles loads no scipy

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
    with Path(destination).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(HEADER)
        for p in paths:
            for i, v in enumerate(p.values):
                writer.writerow([p.id, i, format(float(v), ".17g")])


def rowwise_read_series(source, ragged_ok=False):
    """Every row parsed and checked in file order; each series then checked in turn."""
    source = Path(source)
    rows = {}

    def utf8_lines(fh):
        for lineno, line in enumerate(fh, start=1):
            if any("\udc80" <= c <= "\udcff" for c in line):
                raise SchemaError(f"{source}: line {lineno}: not UTF-8 text")
            yield line

    with source.open(newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(utf8_lines(fh))
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{source}: empty file") from None
        except csv.Error as exc:
            raise SchemaError(f"{source}: line {reader.line_num}: {exc}") from None
        if header != HEADER:
            raise SchemaError(f"{source}: line 1: expected header {','.join(HEADER)}")
        while True:
            try:
                row = next(reader)
            except StopIteration:
                break
            except csv.Error as exc:
                raise SchemaError(f"{source}: line {reader.line_num}: {exc}") from None
            lineno = reader.line_num  # the physical line the row ends on
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


def rowzero_window_covs(x, n_w, L, m):
    """Row 0 of nu(l, m), l = 1..n_w-m+1, of each window x[..., s : s+n_w], built per size m.

    Shape (..., m, L, n_w-m+1): one plane per entry (0, c), c = 0..m-1, each
    the suffix means of x[t] x[t+c] of its own window and size.
    """
    n_l = n_w - m + 1
    shifts = np.lib.stride_tricks.sliding_window_view(x[..., : n_w + L - 1], n_w + L - m, axis=-1)
    products = shifts[..., :1, :] * shifts
    per_window = np.lib.stride_tricks.sliding_window_view(products, n_l, axis=-1)
    out = np.empty(per_window.shape)
    np.cumsum(per_window[..., ::-1], axis=-1, out=out[..., ::-1])
    out /= np.arange(n_l, 0, -1, dtype=float)
    return out


def rowzero_features(x, n_w, L, cfg, scales=None):
    """Per window size m = 1..m_n: the (..., m, L, n_w-m+1) row-0 feature planes of x's windows.

    Window s is divided by scales[..., s]**2 when scales are given; then
    plane 0 takes ln (0 sent to ln 1) and planes 1..m-1 take log* when
    configured, and planes 1..m-1 are multiplied by sqrt(2).
    """
    out = []
    for m in range(1, default_mn(n_w) + 1):
        nu = rowzero_window_covs(x, n_w, L, m)
        if scales is not None:
            nu /= (scales * scales)[..., None, :, None]
        if cfg.use_log_star:
            variances = nu[..., 0, :, :]
            variances[variances == 0] = 1.0
            np.log(variances, out=variances)
            masked_log_star(nu[..., 1:, :, :], out=nu[..., 1:, :, :])
        nu[..., 1:, :, :] *= math.sqrt(2.0)
        out.append(nu)
    return out


def rowzero_mean_d_hat(f1, f2, weights):
    """Mean over the windows of d_hat between features f1 and each of a batch f2.

    For window size m the squared differences of np.triu_indices(m) are
    added in order, entry (r, c) read as plane c - r of size m - r from start
    r on; the m = 1 term is |b - a|.
    """
    per_window = 0.0
    diffs = []
    for m, (a, b, w) in enumerate(zip(f1, f2, weights), start=1):
        diff = b - a
        if m == 1:
            term = np.abs(diff[..., 0, :, :])
        np.multiply(diff, diff, out=diff)
        diffs.append(diff)
        if m > 1:
            planes = [d[..., p, :, r:] for r, d in enumerate(reversed(diffs))
                      for p in range(d.shape[-3])]
            term = np.add(planes[0], planes[1])
            for plane in planes[2:]:
                term += plane
            np.sqrt(term, out=term)
        per_window = per_window + term @ w
    return np.sum(per_window, axis=-1) / per_window.shape[-1]


def rowzero_pair(x1, x2, n_w, L, cfg, scales=None):
    """Mean of d_hat over the L windows of n_w increments that x1 and x2 start, by the row-0 kernel."""
    x = np.stack([x1[: n_w + L - 1], x2[: n_w + L - 1]])
    f = rowzero_features(x, n_w, L, cfg, None if scales is None else np.stack(scales))
    weights = [float(default_weights(m)) * default_weights(np.arange(1, n_w - m + 2))
               for m in range(1, default_mn(n_w) + 1)]
    return float(rowzero_mean_d_hat([a[0] for a in f], [a[1:] for a in f], weights)[0])


def rowzero_d_star_hat(z1, z2, cfg, scales=None):
    """d_star_hat (d_tilde_star with scales) by the row-0 kernel, one pair on its own."""
    K, L = cfg.windows(min(len(z1), len(z2)))
    return rowzero_pair(np.diff(z1.values), np.diff(z2.values), K + 1, L, cfg, scales)


def rowzero_dissimilarity_matrix(paths, cfg):
    """D by the row-0 kernel, one pair at a time in index order."""
    n_paths = len(paths)
    out = np.zeros((n_paths, n_paths))
    for i in range(n_paths):
        for j in range(i + 1, n_paths):
            out[i, j] = out[j, i] = rowzero_d_star_hat(paths[i], paths[j], cfg)
    return out
