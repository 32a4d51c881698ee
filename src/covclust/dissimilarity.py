"""Covariance-based dissimilarity measures between sampled process paths.

The empirical measure compares sliding-window empirical covariance matrices
of two increment series under the Frobenius norm, with summable weights over
window start and window size. The localized variant averages the measure over
windows of consecutive increments of the raw paths; the normalized variant
rescales each window by delta_t raised to the local Hurst value.

Every measure goes through one kernel. A path's features are the empirical
covariances nu(l, m) of each of its windows, log*-transformed when configured.
nu is symmetric, so each of its m(m+1)/2 upper-triangle entries is stored
once, as one contiguous plane over (window, start) in np.triu_indices order;
the off-diagonal planes are multiplied by sqrt(2), so that the plain sum of
squared plane differences is the squared Frobenius distance.
`dissimilarity_matrix` groups its pairs by window layout (K, L), stacks the
paths of each layout and builds all their features in one call; it then
reduces each row's pairs against one tile of paths at a time, the tile capped
in bytes. A pair's value is reduced from the two feature sets alone, with the
same additions in the same order whatever the tile, so it does not depend on
the tile and equals what d_star_hat returns for the pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .hurst import HurstFunction
from .processes import SamplePath, fbm_increment_cov_matrix

# Bytes of features a row's pairs are reduced against at once, and of features
# log* runs over at once; it bounds the temporaries of one reduction and of
# log*'s masks without changing any value.
_TILE_BYTES = 512 * 1024

_SQRT2 = math.sqrt(2.0)


def default_weights(j):
    """Summable positive weights 1 / (j^2 (j+1)^2)."""
    j = np.asarray(j, dtype=float)
    return 1.0 / (j * j * (j + 1.0) * (j + 1.0))


def default_mn(n: int) -> int:
    """Largest covariance-matrix dimension: floor(ln n), clamped to [1, n]."""
    return min(max(int(math.floor(math.log(n))), 1), n)


@dataclass(frozen=True)
class DissimConfig:
    """Everything that pins down the empirical dissimilarity measures.

    Window i (1-based) of a pair holds the K+1 increments of samples i..i+K+1
    and L windows are averaged, n_min being the shorter path's length. K=None
    resolves to n_min - 2 and L=None to every window, n_min - K - 1, so the
    defaults give one window spanning the whole increment series (K = n-2,
    L = 1). The synthetic experiment resolves an unset K to floor(sqrt(n_min))
    instead, with every window (see `evaluation.epoch_dissim`).
    """

    weight_rule: Callable = default_weights
    mn_rule: Callable = default_mn
    K: int | None = None
    L: int | None = None
    use_log_star: bool = False

    def windows(self, n_min: int) -> tuple[int, int]:
        """The (K, L) used on a pair whose shorter path has n_min values."""
        k = n_min - 2 if self.K is None else self.K
        if k < 1:
            raise ValueError(f"window length K={k} infeasible for paths of length {n_min}")
        n_windows = n_min - k - 1
        count = n_windows if self.L is None else self.L
        if not (1 <= count <= n_windows):
            raise ValueError(
                f"window count L={count} infeasible: need 1 <= L <= {n_windows} "
                f"for paths of length {n_min} with K={k}"
            )
        return k, count

    def check_windows(self, n_min: int) -> int:
        """The resolved K, after checking that the windows fit."""
        return self.windows(n_min)[0]


@dataclass
class OpCounter:
    """Instrumentation for the number of Frobenius-distance evaluations."""

    rho: int = 0


@dataclass(frozen=True)
class IncrementPath:
    """Consecutive differences of a sample path (one shorter than its parent)."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    def __len__(self) -> int:
        return self.values.size


def increment_path(z: SamplePath) -> IncrementPath:
    """The full increment series of a sample path."""
    return IncrementPath(np.diff(z.values))


def log_star(x, out=None):
    """Signed logarithm: ln x for x > 0, -ln(-x) for x < 0, and +0.0 at 0.

    As with a numpy ufunc, the result is written into `out` when it is given,
    which may be x itself.
    """
    a = np.array(x, dtype=float) if out is None else out
    neg = np.less(x, 0)
    np.abs(x, out=a)
    np.log(a, out=a, where=a != 0)
    np.negative(a, out=a, where=neg)
    return float(a) if a.ndim == 0 else a


def rho(m1: np.ndarray, m2: np.ndarray, use_log_star: bool = False,
        counter: OpCounter | None = None) -> float:
    """Frobenius norm of the difference of two equal-sized matrices."""
    m1 = np.asarray(m1, dtype=float)
    m2 = np.asarray(m2, dtype=float)
    if m1.shape != m2.shape:
        raise ValueError(f"matrix shapes differ: {m1.shape} vs {m2.shape}")
    if use_log_star:
        m1 = log_star(m1)
        m2 = log_star(m2)
    if counter is not None:
        counter.rho += 1
    return float(np.sqrt(np.sum((m1 - m2) ** 2)))


def empirical_cov(x: IncrementPath, l: int, m: int) -> np.ndarray:
    """Empirical m x m covariance of the windows starting at l, l+1, ..., n-m+1 (1-based).

    The divisor is the number of averaged windows, n - m - l + 2; the boundary
    case l = n - m + 1 is a single outer product.
    """
    n = len(x)
    if l < 1 or m < 1 or l + m - 1 > n or n - m - l + 2 < 1:
        raise ValueError(f"empty summation range for (l={l}, m={m}) on a path of length {n}")
    entries = _window_covs(x.values[l - 1 :], n - l + 1, 1, m)[:, 0, 0]
    rows, cols = np.triu_indices(m)
    out = np.empty((m, m))
    out[rows, cols] = out[cols, rows] = entries
    return out


def _window_covs(x: np.ndarray, n_w: int, L: int, m: int) -> np.ndarray:
    """Upper-triangle entries of nu(l, m), l = 1..n_w-m+1, of each window x[..., s : s+n_w].

    Shape (..., m(m+1)/2, L, n_w-m+1), s = 0..L-1 on the window axis and one
    leading axis per leading axis of x: one contiguous plane per entry (r, c)
    of np.triu_indices(m). Each window's entries are its own suffix sums of
    the products x[t+r] x[t+c], so no difference of two long running sums is
    ever taken and nothing cancels.
    """
    n_l = n_w - m + 1
    shifts = np.lib.stride_tricks.sliding_window_view(x[..., : n_w + L - 1], n_w + L - m, axis=-1)
    rows, cols = np.triu_indices(m)
    products = shifts[..., rows, :] * shifts[..., cols, :]
    per_window = np.lib.stride_tricks.sliding_window_view(products, n_l, axis=-1)
    out = np.empty(per_window.shape)
    np.cumsum(per_window[..., ::-1], axis=-1, out=out[..., ::-1])
    out /= np.arange(n_l, 0, -1, dtype=float)
    return out


def _features(x: np.ndarray, n_w: int, L: int, cfg: DissimConfig,
              scales: np.ndarray | None = None) -> list:
    """Per window size m = 1..m_n: the (..., m(m+1)/2, L, n_w-m+1) feature planes of x's windows.

    Window s holds x[..., s : s+n_w]. Its covariance entries are divided by
    scales[..., s]**2 when scales are given, then log* is applied if
    configured, then the off-diagonal planes are multiplied by sqrt(2).
    """
    out = []
    for m in range(1, cfg.mn_rule(n_w) + 1):
        nu = _window_covs(x, n_w, L, m)
        if scales is not None:
            nu /= (scales * scales)[..., None, :, None]
        if cfg.use_log_star:
            flat = nu.reshape(-1)  # a view: nu is a fresh contiguous array
            step = max(1, _TILE_BYTES // flat.itemsize)
            for start in range(0, flat.size, step):
                part = flat[start : start + step]
                log_star(part, out=part)
        rows, cols = np.triu_indices(m)
        for p in np.flatnonzero(rows != cols):
            nu[..., p, :, :] *= _SQRT2
        out.append(nu)
    return out


def _weights(n_w: int, cfg: DissimConfig) -> list:
    """Per window size m = 1..m_n: the weights w(m) w(l) of the starts l = 1..n_w-m+1."""
    return [float(cfg.weight_rule(m)) * cfg.weight_rule(np.arange(1, n_w - m + 2))
            for m in range(1, cfg.mn_rule(n_w) + 1)]


def _mean_d_hat(f1: list, f2: list, weights: list) -> np.ndarray:
    """Mean over the windows of d_hat between one path's features f1 and each of a batch f2.

    f2 has one more leading axis than f1; the result has one value per entry
    of it. The squared plane differences are added plane by plane, so each
    value is reduced on its own and does not depend on the batch.
    """
    per_window = 0.0
    for a, b, w in zip(f1, f2, weights):
        diff = b - a
        np.multiply(diff, diff, out=diff)
        sq = diff[..., 0, :, :]
        for p in range(1, diff.shape[-3]):
            sq += diff[..., p, :, :]
        per_window = per_window + np.sqrt(sq, out=sq) @ w
    return np.sum(per_window, axis=-1) / per_window.shape[-1]


def _pair(x1: np.ndarray, x2: np.ndarray, n_w: int, L: int, cfg: DissimConfig,
          scales=None) -> float:
    """Mean of d_hat over the L windows of n_w increments that x1 and x2 start."""
    x = np.stack([x1[: n_w + L - 1], x2[: n_w + L - 1]])
    f = _features(x, n_w, L, cfg, None if scales is None else np.stack(scales))
    return float(_mean_d_hat([a[0] for a in f], [a[1:] for a in f], _weights(n_w, cfg))[0])


def d_hat_rho_count(n: int, cfg: DissimConfig) -> int:
    """Closed form for the number of rho evaluations in one d_hat call."""
    m_n = cfg.mn_rule(n)
    return sum(n - m + 1 for m in range(1, m_n + 1))


def d_hat(x1: IncrementPath, x2: IncrementPath, cfg: DissimConfig = DissimConfig(),
          counter: OpCounter | None = None) -> float:
    """Empirical covariance-based dissimilarity between two increment series.

    Double weighted sum over window sizes m = 1..m_n and window starts
    l = 1..n-m+1 of the Frobenius distance between the two paths' empirical
    covariance matrices, with n the shorter length.
    """
    n = min(len(x1), len(x2))
    if n < 1:
        raise ValueError("both increment series must be nonempty")
    if counter is not None:
        counter.rho += d_hat_rho_count(n, cfg)
    return _pair(x1.values, x2.values, n, 1, cfg)


def localized_increments(z: SamplePath, i: int, K: int) -> IncrementPath:
    """The K+1 consecutive increments of z anchored at sample index i (1-based)."""
    n = len(z)
    if i < 1 or i + K + 1 > n:
        raise ValueError(f"window (i={i}, K={K}) overruns a path of length {n}")
    return IncrementPath(np.diff(z.values[i - 1 : i + K + 1]))


def _localized(z1: SamplePath, z2: SamplePath, cfg: DissimConfig, counter: OpCounter | None,
               scales=None) -> float:
    """Mean of d_hat over the pair's L windows of K+1 increments."""
    K, L = cfg.windows(min(len(z1), len(z2)))
    if counter is not None:
        counter.rho += L * d_hat_rho_count(K + 1, cfg)
    return _pair(np.diff(z1.values), np.diff(z2.values), K + 1, L, cfg, scales)


def d_star_hat(z1: SamplePath, z2: SamplePath, cfg: DissimConfig = DissimConfig(),
               counter: OpCounter | None = None) -> float:
    """Localized dissimilarity: mean of d_hat over L windowed increment pairs."""
    return _localized(z1, z2, cfg, counter)


def _window_scales(z: SamplePath, H: HurstFunction, L: int) -> np.ndarray:
    """delta_t ** H(t_i) of windows i = 1..L."""
    return np.array([z.delta_t ** H(z.time_of(i)) for i in range(1, L + 1)])


def d_tilde_star(z1: SamplePath, z2: SamplePath, H1: HurstFunction, H2: HurstFunction,
                 cfg: DissimConfig = DissimConfig(),
                 counter: OpCounter | None = None) -> float:
    """Like d_star_hat, but each window is rescaled by delta_t ** H(t_i).

    With delta_t = 1 every scale factor is exactly 1.0, so the result is
    bitwise equal to d_star_hat.
    """
    _, L = cfg.windows(min(len(z1), len(z2)))
    scales = (_window_scales(z1, H1, L), _window_scales(z2, H2, L))
    return _localized(z1, z2, cfg, counter, scales)


def analytic_d(h1: float, h2: float, var1: float, var2: float, truncation: int = 100,
               use_log_star: bool = False,
               weight_rule: Callable = default_weights) -> float:
    """Truncated theoretical dissimilarity between two fBm-increment covariance structures.

    The population covariance of consecutive fBm increments is stationary, so
    the Frobenius term depends on the window size m only and the double series
    factorizes into (sum of start weights) * (weighted sum over sizes).
    """
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    w = weight_rule(np.arange(1, truncation + 1))
    total = 0.0
    for m in range(1, truncation + 1):
        c1 = fbm_increment_cov_matrix(h1, var1, m)
        c2 = fbm_increment_cov_matrix(h2, var2, m)
        total += w[m - 1] * rho(c1, c2, use_log_star=use_log_star)
    return float(np.sum(w)) * total


def dissimilarity_matrix(paths, cfg: DissimConfig = DissimConfig(),
                         counter: OpCounter | None = None) -> np.ndarray:
    """Symmetric matrix of pairwise d_star_hat values with a zero diagonal.

    Pairs are grouped by the window layout (K, L) they resolve to. The paths
    of a layout are stacked and their features built in one call; each row's
    pairs are then reduced against tiles of at most _TILE_BYTES of features.
    """
    n_paths = len(paths)
    if n_paths < 2:
        raise ValueError("need at least 2 paths")
    lengths = np.array([len(p) for p in paths])
    n_min = np.minimum.outer(lengths, lengths)
    sizes, first = np.unique(n_min[np.triu_indices(n_paths, 1)], return_index=True)
    layouts = {}
    for k in np.argsort(first):  # in pair order, so the first infeasible pair raises
        layouts.setdefault(cfg.windows(int(sizes[k])), []).append(sizes[k])
    out = np.zeros((n_paths, n_paths))
    for (K, L), layout_sizes in layouts.items():
        pairs = np.triu(np.isin(n_min, layout_sizes), 1)
        if counter is not None:
            counter.rho += int(pairs.sum()) * L * d_hat_rho_count(K + 1, cfg)
        members = np.flatnonzero(pairs.any(axis=0) | pairs.any(axis=1))
        slot = np.zeros(n_paths, dtype=int)
        slot[members] = np.arange(members.size)
        stack = np.stack([np.diff(paths[k].values[: K + L + 1]) for k in members])
        features = _features(stack, K + 1, L, cfg)
        weights = _weights(K + 1, cfg)
        tile = max(1, _TILE_BYTES // sum(f[0].nbytes for f in features))
        for i in members:
            row = [f[slot[i]] for f in features]
            cols = np.flatnonzero(pairs[i])
            for t in range(0, cols.size, tile):
                j = cols[t : t + tile]
                s = slot[j]
                block = slice(s[0], s[-1] + 1) if s[-1] - s[0] + 1 == s.size else s
                out[i, j] = out[j, i] = _mean_d_hat(row, [f[block] for f in features], weights)
    return out
