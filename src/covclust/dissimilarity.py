"""Covariance-based dissimilarity measures between sampled process paths.

The empirical measure compares sliding-window empirical covariance matrices
of two increment series under the Frobenius norm, with summable weights over
window start and window size. The localized variant averages the measure over
windows of consecutive increments of the raw paths, laid out by
`DissimConfig.windows`, the one rule that library, CLI and experiment share;
the normalized variant rescales each window by delta_t raised to the local
Hurst value.

Every measure goes through one kernel. A path's features are the empirical
covariances nu(l, m) of each of its windows, log*-transformed when configured.
Entry (r, c) of nu(l, m) is the same suffix sum of the same products, over the
same count, as entry (0, c - r) of nu(l + r, m - r). So only row 0 of each
nu(l, m) is stored, as one contiguous plane over (window, start) per entry
(0, c), and every other entry of the upper triangle is read from the plane of
a smaller window size, shifted by r starts. Planes c >= 1 are multiplied by
sqrt(2), so that the plain sum of squared entry differences over the upper
triangle is the squared Frobenius distance.
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

import numpy as np

from .hurst import HurstFunction
from .processes import SamplePath

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
    resolves to floor(sqrt(n_min)), so the windows grow with n but stay local
    (K/n -> 0), and L=None to every window, n_min - K - 1. Window sizes run
    over m = 1..default_mn(K+1) and carry the weights default_weights(m) times
    default_weights(l) of their starts l.
    """

    K: int | None = None
    L: int | None = None
    use_log_star: bool = False

    def windows(self, n_min: int) -> tuple[int, int]:
        """The (K, L) used on a pair whose shorter path has n_min values."""
        k = math.isqrt(n_min) if self.K is None else self.K
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


def log_star(x, out=None):
    """Signed logarithm: ln x for x > 0, -ln(-x) for x < 0, and +0.0 at 0.

    As with a numpy ufunc, the result is written into `out` when it is given,
    which may be x itself.
    """
    sign = np.less(x, 0).astype(float)  # taken before out, which may be x, is written
    a = np.array(x, dtype=float) if out is None else out
    np.abs(x, out=a)
    a[a == 0] = 1.0  # ln 1 = +0.0; -0.0 is not < 0, so its factor below is +1
    np.log(a, out=a)
    sign *= -2.0
    sign += 1.0
    a *= sign
    return float(a) if a.ndim == 0 else a


def _window_covs(x: np.ndarray, n_w: int, L: int, m: int) -> np.ndarray:
    """Row 0 of nu(l, m), l = 1..n_w-m+1, of each window x[..., s : s+n_w].

    Shape (..., m, L, n_w-m+1), s = 0..L-1 on the window axis and one leading
    axis per leading axis of x: one contiguous plane per entry (0, c),
    c = 0..m-1. Each window's entries are its own suffix sums of the products
    x[t] x[t+c], so no difference of two long running sums is ever taken and
    nothing cancels.
    """
    n_l = n_w - m + 1
    shifts = np.lib.stride_tricks.sliding_window_view(x[..., : n_w + L - 1], n_w + L - m, axis=-1)
    products = shifts[..., :1, :] * shifts
    per_window = np.lib.stride_tricks.sliding_window_view(products, n_l, axis=-1)
    out = np.empty(per_window.shape)
    np.cumsum(per_window[..., ::-1], axis=-1, out=out[..., ::-1])
    out /= np.arange(n_l, 0, -1, dtype=float)
    return out


def _features(x: np.ndarray, n_w: int, L: int, cfg: DissimConfig,
              scales: np.ndarray | None = None) -> list:
    """Per window size m = 1..m_n: the (..., m, L, n_w-m+1) row-0 feature planes of x's windows.

    Window s holds x[..., s : s+n_w]. Its covariance entries are divided by
    scales[..., s]**2 when scales are given, then log* is applied if
    configured, then the off-diagonal planes 1..m-1 are multiplied by sqrt(2).
    """
    out = []
    for m in range(1, default_mn(n_w) + 1):
        nu = _window_covs(x, n_w, L, m)
        if scales is not None:
            nu /= (scales * scales)[..., None, :, None]
        if cfg.use_log_star:
            flat = nu.reshape(-1)  # a view: nu is a fresh contiguous array
            step = max(1, _TILE_BYTES // flat.itemsize)
            for start in range(0, flat.size, step):
                part = flat[start : start + step]
                log_star(part, out=part)
        nu[..., 1:, :, :] *= _SQRT2
        out.append(nu)
    return out


def _weights(n_w: int) -> list:
    """Per window size m = 1..m_n: the weights w(m) w(l) of the starts l = 1..n_w-m+1."""
    return [float(default_weights(m)) * default_weights(np.arange(1, n_w - m + 2))
            for m in range(1, default_mn(n_w) + 1)]


def _mean_d_hat(f1: list, f2: list, weights: list) -> np.ndarray:
    """Mean over the windows of d_hat between one path's features f1 and each of a batch f2.

    f2 has one more leading axis than f1; the result has one value per entry
    of it. For window size m, the squared differences of the entries of
    np.triu_indices(m) are added one after another: entry (r, c) is plane
    c - r of size m - r, from start r on. Each value is reduced on its own and
    does not depend on the batch.
    """
    per_window = 0.0
    diffs = []
    for a, b, w in zip(f1, f2, weights):
        diff = b - a
        np.multiply(diff, diff, out=diff)
        diffs.append(diff)
        sq = diff[..., 0, :, :].copy()  # larger sizes still read diff
        for r, d in enumerate(reversed(diffs)):
            for p in range(r == 0, d.shape[-3]):
                sq += d[..., p, :, r:]
        per_window = per_window + np.sqrt(sq, out=sq) @ w
    return np.sum(per_window, axis=-1) / per_window.shape[-1]


def _pair(x1: np.ndarray, x2: np.ndarray, n_w: int, L: int, cfg: DissimConfig,
          scales=None) -> float:
    """Mean of d_hat over the L windows of n_w increments that x1 and x2 start."""
    x = np.stack([x1[: n_w + L - 1], x2[: n_w + L - 1]])
    f = _features(x, n_w, L, cfg, None if scales is None else np.stack(scales))
    return float(_mean_d_hat([a[0] for a in f], [a[1:] for a in f], _weights(n_w))[0])


def d_hat_rho_count(n: int, cfg: DissimConfig) -> int:
    """Closed form for the number of rho evaluations in one d_hat call.

    The count depends on n alone; cfg is accepted so that callers pass the
    configuration they measure, and does not change it.
    """
    m_n = default_mn(n)
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
        weights = _weights(K + 1)
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
