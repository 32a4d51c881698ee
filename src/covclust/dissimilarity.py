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
same count, as entry (0, c - r) of nu(l + r, m - r); and entry (0, c) of
nu(l, m + 1) of window s + 1 is entry (0, c) of nu(l + 1, m) of window s: both
sum x[t] x[t+c] from the same window end down to the same start, in the same
order, over the same count. So the features are one array per lag c = 0..m_n-1
of the suffix means of x[t] x[t+c], by window end and start, and every entry
of the upper triangle of every nu(l, m) of every window is a view of one of
them: 81 KB per path at K = 17 (n = 305, m_n = 2) and 2.1 MB at K = 44
(n = 2000, m_n = 3). log* runs once per array, and the arrays c >= 1 are
multiplied by sqrt(2), so that the plain sum of squared entry differences over
the upper triangle is the squared Frobenius distance. d_tilde_star divides each
window by its own scale, so an entry that two windows share unscaled takes a
different value in each: it gathers each window's rows of the shared arrays
into a block of its own, divided by that window's squared scale.
A pair's windows follow its shorter path, so `dissimilarity_matrix` sweeps the
paths by length: a run of paths with one layout (K, L) builds its features and
those of every longer path in one call, and reduces each path against
contiguous tiles of the longer paths, a tile capped in bytes. Each lag's
difference is taken and squared once per tile, and a pair's value is reduced
from its two feature sets alone, with the same additions in the same order
whatever the tile. d_star_hat is the entry of that matrix for its pair.
The reduction is bound by its passes over memory, so two shortcuts save
passes without changing a bit: the m = 1 term takes |b - a| for the root of
its one square, and log* of lag 0, whose entries are never negative nor
-0.0, is a plain ln without the sign passes. `_mean_d_hat` and `_features`
say why each is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby

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
    default_weights(l) of their starts l. K and L, when set, must be at
    least 1.
    """

    K: int | None = None
    L: int | None = None
    use_log_star: bool = False

    def __post_init__(self):
        for key, value in (("K", self.K), ("L", self.L)):
            if value is not None and value < 1:
                raise ValueError(f"{key} must be at least 1, got {value}")

    def windows(self, n_min: int) -> tuple[int, int]:
        """The (K, L) used on a pair whose shorter path has n_min values."""
        k = math.isqrt(n_min) if self.K is None else self.K
        n_windows = n_min - k - 1
        if n_windows < 1:
            raise ValueError(f"window length K={k} infeasible for paths of length {n_min}")
        count = n_windows if self.L is None else self.L
        if count > n_windows:
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


def _lag_means(x: np.ndarray, n_w: int, L: int, m_n: int) -> list:
    """Per lag c = 0..m_n-1: the suffix means of x[t] x[t+c] that x's L windows of n_w read.

    Array c has shape (..., L+m_n-1-c, n_w-c), one leading axis per leading
    axis of x. Row i ends at the product t = i + n_w - m_n, and its column k
    is the mean of the n_w - c - k products up to that end, summed from the
    end down, as `np.cumsum` over the reversed row adds them. m_n - 1 - c
    zeros stand before the first product, so that every row is full; no
    entry that a window reads sums one of them. Entry (0, c) of nu(l, m) of
    window s, l = 1..n_w-m+1, is row m_n - m + s, column m - 2 - c + l. Each
    entry is its own suffix sum, so no difference of two long running sums
    is ever taken and nothing cancels.
    """
    out = []
    for c in range(m_n):
        width = n_w - c
        products = np.empty(x.shape[:-1] + (L + m_n - 2 - c + width,))
        products[..., : m_n - 1 - c] = 0.0
        np.multiply(x[..., : n_w + L - 1 - c], x[..., c : n_w + L - 1],
                    out=products[..., m_n - 1 - c :])
        ends = np.lib.stride_tricks.sliding_window_view(products, width, axis=-1)
        a = np.empty(ends.shape)
        np.cumsum(ends[..., ::-1], axis=-1, out=a[..., ::-1])
        a /= np.arange(width, 0, -1, dtype=float)
        out.append(a)
    return out


def _features(x: np.ndarray, n_w: int, L: int, cfg: DissimConfig,
              scales: np.ndarray | None = None) -> list:
    """Per lag c = 0..m_n-1: the feature array of x's L windows x[..., s : s+n_w].

    These are `_lag_means`' (..., L+m_n-1-c, n_w-c) arrays, whose rows the
    windows share: row i of window s is row i + s. With scales, window s is
    divided by scales[..., s]**2, so no row can serve two windows: the rows
    i + s are gathered, each window's m_n - c rows apart, so that row i of
    window s is row i*L + s of a contiguous (..., (m_n-c)*L, n_w-c) array,
    and divided by window s's squared scale. A row of one window alone would
    sum some of the m_n - 1 - c leading zeros where the shared row sums
    products before the window; those entries are never read, and every
    entry that is read sums the same products in the same order. Then log*
    is applied if configured, and the arrays c >= 1 are multiplied by
    sqrt(2). Array 0 holds means of squares over squared positive scales, so
    it is never negative and never -0.0: there log* is ln, with 0 sent to
    ln 1 = +0.0, and its sign passes are skipped. log* runs over pieces of at
    most _TILE_BYTES, so its masks stay bounded.
    """
    m_n = default_mn(n_w)
    out = _lag_means(x, n_w, L, m_n)
    if scales is not None:
        out = [np.concatenate([a[..., i : i + L, :] for i in range(m_n - c)], axis=-2)
               / np.tile(scales * scales, m_n - c)[..., None] for c, a in enumerate(out)]
    for c, a in enumerate(out):
        if cfg.use_log_star:
            for part in _tiles(a):
                if c == 0:
                    part[part == 0] = 1.0
                    np.log(part, out=part)
                else:
                    log_star(part, out=part)
        if c > 0:
            a *= _SQRT2
    return out


def _tiles(a: np.ndarray):
    """Views of at most _TILE_BYTES that cover a, in order; a must be contiguous to be a view."""
    flat = a.reshape(-1)
    step = max(1, _TILE_BYTES // flat.itemsize)
    for i in range(0, flat.size, step):
        yield flat[i : i + step]


def _weights(n_w: int) -> list:
    """Per window size m = 1..m_n: the weights w(m) w(l) of the starts l = 1..n_w-m+1."""
    return [float(default_weights(m)) * default_weights(np.arange(1, n_w - m + 2))
            for m in range(1, default_mn(n_w) + 1)]


def _mean_d_hat(f1: list, f2: list, weights: list, L: int) -> np.ndarray:
    """Mean over the L windows of d_hat between one path's features f1 and each of a batch f2.

    f2 has one more leading axis than f1; the result has one value per entry
    of it. Row i of the L windows of lag c is rows i*step .. i*step + L - 1,
    step being 1 where the windows share rows and L where each has its own
    (see `_features`); the array's height, L + step*(m_n-c-1), tells which.
    Each lag's difference b - a is taken and squared once. For window size
    m, the squared differences of the entries of np.triu_indices(m) are
    added one after another into a fresh (..., L, n_w-m+1) term: entry
    (r, r + c) is plane c of size m - r from start r on, that is row
    m_n - m + r and columns m - 1 - c .. n_w - c - 1 of lag c, and the first
    addition makes the sum. Each value is reduced on its own and does not
    depend on the batch. The m = 1 term, the root of one square, is taken as
    |b - a|: in binary floating point sqrt(fl(d * d)) == |d| bit for bit
    whenever d * d is a normal finite double, i.e. for 2**-511 <= |d| <
    2**512. log* values lie within +-745 and are 0 or above 1e-16 in
    magnitude, so with log* every difference qualifies. Without it, a
    difference outside that range (from increments below about 1e-77 or
    above about 1e77) gives the exact |d| where the root of the under- or
    overflowed square would not.
    """
    m_n = len(f1)
    n_w = f1[0].shape[-1]
    diffs = [b - a for a, b in zip(f1, f2)]
    steps = [(d.shape[-2] - L) // max(m_n - c - 1, 1) for c, d in enumerate(diffs)]

    def plane(c, i, m):
        return diffs[c][..., i * steps[c] : i * steps[c] + L, m - 1 - c : n_w - c]

    total = np.abs(plane(0, m_n - 1, 1)) @ weights[0]
    for d in diffs:
        np.multiply(d, d, out=d)
    for m, w in enumerate(weights[1:], start=2):
        planes = [plane(c, m_n - m + r, m) for r in range(m) for c in range(m - r)]
        term = np.add(planes[0], planes[1])
        for p in planes[2:]:
            term += p
        np.sqrt(term, out=term)
        total += term @ w
    return np.sum(total, axis=-1) / L


def _pair(x1: np.ndarray, x2: np.ndarray, n_w: int, L: int, cfg: DissimConfig,
          scales=None) -> float:
    """Mean of d_hat over the L windows of n_w increments that x1 and x2 start."""
    x = np.stack([x1[: n_w + L - 1], x2[: n_w + L - 1]])
    f = _features(x, n_w, L, cfg, None if scales is None else np.stack(scales))
    return float(_mean_d_hat([a[0] for a in f], [a[1:] for a in f], _weights(n_w), L)[0])


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


def d_star_hat(z1: SamplePath, z2: SamplePath, cfg: DissimConfig = DissimConfig(),
               counter: OpCounter | None = None) -> float:
    """Localized dissimilarity: mean of d_hat over L windowed increment pairs.

    It is entry (0, 1) of `dissimilarity_matrix([z1, z2], cfg, counter)`.
    """
    return float(dissimilarity_matrix([z1, z2], cfg, counter)[0, 1])


def _window_scales(z: SamplePath, H: HurstFunction, L: int) -> np.ndarray:
    """delta_t ** H(t_i), i = 1..L, by float ** (numpy's power differs in the last bits)."""
    h = H.values_on(z.delta_t * np.arange(1, L + 1))
    return np.array([z.delta_t ** v for v in h.tolist()])


def d_tilde_star(z1: SamplePath, z2: SamplePath, H1: HurstFunction, H2: HurstFunction,
                 cfg: DissimConfig = DissimConfig(),
                 counter: OpCounter | None = None) -> float:
    """Like d_star_hat, but each window is rescaled by delta_t ** H(t_i).

    With delta_t = 1 every scale factor is exactly 1.0, so the result is
    bitwise equal to d_star_hat.
    """
    K, L = cfg.windows(min(len(z1), len(z2)))
    scales = (_window_scales(z1, H1, L), _window_scales(z2, H2, L))
    if counter is not None:
        counter.rho += L * d_hat_rho_count(K + 1, cfg)
    return _pair(np.diff(z1.values), np.diff(z2.values), K + 1, L, cfg, scales)


def dissimilarity_matrix(paths, cfg: DissimConfig = DissimConfig(),
                         counter: OpCounter | None = None) -> np.ndarray:
    """Symmetric matrix of pairwise d_star_hat values with a zero diagonal.

    Paths are swept shortest first; a run of equal layouts (K, L) builds its
    features and those of every longer path in one call, and reduces each path
    against contiguous tiles of at most _TILE_BYTES of the longer paths' features.
    """
    n_paths = len(paths)
    if n_paths < 2:
        raise ValueError("need at least 2 paths")
    lengths = np.array([len(p) for p in paths])
    n_min = np.minimum.outer(lengths, lengths)
    sizes, first = np.unique(n_min[np.triu_indices(n_paths, 1)], return_index=True)
    for k in np.argsort(first):  # in pair order, so the first infeasible pair raises
        cfg.windows(int(sizes[k]))
    order = np.argsort(lengths, kind="stable")
    out = np.zeros((n_paths, n_paths))
    r0 = 0
    for (K, L), run in groupby(cfg.windows(n) for n in lengths[order[:-1]].tolist()):
        n_rows, rest = len(list(run)), order[r0:]
        r0 += n_rows
        if counter is not None:  # each path of the run pairs with every path after it
            pairs = sum(range(rest.size - n_rows, rest.size))
            counter.rho += pairs * L * d_hat_rho_count(K + 1, cfg)
        stack = np.stack([np.diff(paths[k].values[: K + L + 1]) for k in rest])
        features = _features(stack, K + 1, L, cfg)
        weights = _weights(K + 1)
        tile = max(1, _TILE_BYTES // sum(f[0].nbytes for f in features))
        for i in range(n_rows):
            row = [f[i] for f in features]
            for s in range(i + 1, rest.size, tile):
                cols = rest[s : s + tile]
                out[rest[i], cols] = out[cols, rest[i]] = _mean_d_hat(
                    row, [f[s : s + tile] for f in features], weights, L)
    return out
