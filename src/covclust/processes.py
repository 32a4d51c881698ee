"""Exact-covariance Gaussian path generation for fBm/mBm and analytic covariance oracles.

Paths are sampled on the grid t_i = i*delta_t, i = 1..n (the process is
degenerate at t = 0), by factorizing the population covariance matrix and
pushing a seeded standard-normal vector through the factor.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma_vec

from .hurst import HurstFunction

_JITTERS = (0.0, 1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8)
# Rows per block of the covariance assembly. Each temporary then holds at
# most _COV_BLOCK x n entries (4 MB at n = 2000) rather than n x n.
_COV_BLOCK = 256


class FactorizationError(np.linalg.LinAlgError):
    """Covariance factorization failed even after maximum diagonal jitter."""


@dataclass(frozen=True)
class SamplePath:
    """A discretely observed path: values[i] is the process at (i+1)*delta_t."""

    id: str
    values: np.ndarray
    delta_t: float = 1.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size < 2:
            raise ValueError("a sample path needs at least 2 values")
        if not np.all(np.isfinite(values)):
            raise ValueError("sample path values must be finite")
        if self.delta_t <= 0:
            raise ValueError("delta_t must be positive")

    def __len__(self) -> int:
        return self.values.size

    def time_of(self, i: int) -> float:
        """Time of the i-th sample, 1-based."""
        return i * self.delta_t

    def prefix(self, n: int) -> "SamplePath":
        """The path truncated to its first n values."""
        return SamplePath(self.id, self.values[:n], self.delta_t)


def d_factor(t: float, s: float) -> float:
    """Amplitude coupling between two Hurst levels in the mBm covariance kernel.

    sqrt(G(2t+1) G(2s+1) sin(pi t) sin(pi s)) / (2 G(t+s+1) sin(pi (t+s)/2)),
    for t, s in (0, 1). Equals 1/2 whenever t == s.
    """
    if not (0.0 < t < 1.0 and 0.0 < s < 1.0):
        raise ValueError(f"Hurst arguments must lie in (0, 1), got ({t}, {s})")
    num = math.sqrt(
        math.gamma(2 * t + 1) * math.gamma(2 * s + 1) * math.sin(math.pi * t) * math.sin(math.pi * s)
    )
    den = 2 * math.gamma(t + s + 1) * math.sin(math.pi * (t + s) / 2)
    value = num / den
    if not math.isfinite(value):
        raise ValueError(f"non-finite coupling factor for Hurst pair ({t}, {s})")
    return value


def build_cov_matrix(f: HurstFunction, times) -> np.ndarray:
    """Population covariance matrix of the mBm on a strictly increasing time grid.

    Entry (i, j) is d_factor(H_i, H_j) * (|t_j|^a + |t_i|^a - |t_j - t_i|^a)
    with a = H_i + H_j. Only the upper triangle is evaluated, in blocks of
    _COV_BLOCK rows written into one preallocated matrix; each block is also
    written, transposed, below the diagonal, so the matrix is exactly symmetric.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValueError("times must be a non-empty 1-d grid")
    if times.size > 1 and not np.all(np.diff(times) > 0):
        raise ValueError("times must be strictly increasing")
    h = f.values_on(times)
    tt = np.abs(times)
    g = _gamma_vec(2.0 * h + 1.0) * np.sin(np.pi * h)
    n = times.size
    cov = np.empty((n, n))
    for r0 in range(0, n, _COV_BLOCK):
        r1 = min(r0 + _COV_BLOCK, n)
        rows, cols = slice(r0, r1), slice(r0, n)
        a = h[rows, None] + h[None, cols]
        d = np.sqrt(np.outer(g[rows], g[cols])) / (
            2.0 * _gamma_vec(a + 1.0) * np.sin(np.pi * a / 2.0)
        )
        if not np.all(np.isfinite(d)):
            raise ValueError("non-finite coupling factor in covariance assembly")
        powers = tt[None, cols] ** a + tt[rows, None] ** a
        block = d * (powers - np.abs(times[None, cols] - times[rows, None]) ** a)
        # the diagonal square mirrors its own upper triangle, like every other entry
        square = block[:, : r1 - r0]
        cov[rows, rows] = np.triu(square) + np.triu(square, 1).T
        cov[rows, r1:] = block[:, r1 - r0 :]
        cov[r1:, rows] = block[:, r1 - r0 :].T
    return cov


def fbm_increment_cov_matrix(h: float, var1: float, m: int, delta: float = 1.0) -> np.ndarray:
    """m x m population covariance of consecutive fBm increments (Toeplitz)."""
    lags = np.abs(np.arange(m)[:, None] - np.arange(m)[None, :]).astype(float)
    row = (
        var1
        * delta ** (2 * h)
        / 2.0
        * (np.abs(lags - 1) ** (2 * h) + np.abs(lags + 1) ** (2 * h) - 2 * lags ** (2 * h))
    )
    return row


def cholesky_with_jitter(cov: np.ndarray) -> np.ndarray:
    """Lower-triangular factor of a symmetric PSD matrix, with escalating jitter.

    The matrix itself is factored first. Only if that fails is additive
    diagonal jitter tried, escalating 1e-14 -> 1e-8 before giving up.
    """
    for jitter in _JITTERS:
        try:
            return np.linalg.cholesky(cov + jitter * np.eye(cov.shape[0]) if jitter else cov)
        except np.linalg.LinAlgError:
            continue
    raise FactorizationError(
        "covariance factorization failed after maximum jitter 1e-8; "
        "the kernel is numerically degenerate"
    )


# Entries kept by each of the factor caches here and the pool cache of
# `evaluation.simulate_pool`, least recently used first out. The largest
# working set is 10 factors: the 5 mono and 5 sin groups of an offline
# experiment at full path length. Unbounded, every new Hurst profile at
# n = 2000 would stay resident as a 32 MB factor.
CACHE_SIZE = 16


# Factors are keyed by the full generation configuration; safe because
# HurstFunction is frozen/hashable and factors are never written to.
@functools.lru_cache(maxsize=CACHE_SIZE)
def _mbm_factor(f: HurstFunction, n: int, delta_t: float) -> np.ndarray:
    times = delta_t * np.arange(1, n + 1)
    return cholesky_with_jitter(build_cov_matrix(f, times))


@functools.lru_cache(maxsize=CACHE_SIZE)
def _fgn_factor(h: float, n: int, delta: float) -> np.ndarray:
    return cholesky_with_jitter(fbm_increment_cov_matrix(h, 1.0, n, delta))


def sample_path(f: HurstFunction, n: int, delta_t: float, seed, id: str | None = None) -> SamplePath:
    """Draw one zero-mean Gaussian path with the exact mBm covariance.

    Deterministic given the seed; seeds may be integers or int sequences so
    that per-path streams can be derived from (experiment seed, path index)
    and generated in any order.
    """
    if n < 2:
        raise ValueError("need n >= 2 samples")
    if delta_t <= 0:
        raise ValueError("delta_t must be positive")
    factor = _mbm_factor(f, n, delta_t)
    noise = np.random.default_rng(seed).standard_normal(n)
    values = factor @ noise
    if id is None:
        id = f"{f.kind}-{seed}"
    return SamplePath(id=id, values=values, delta_t=delta_t)


def sample_fbm_increments(h: float, n: int, delta: float, seed) -> np.ndarray:
    """Draw n consecutive fBm increments (fractional Gaussian noise), seeded."""
    noise = np.random.default_rng(seed).standard_normal(n)
    return _fgn_factor(h, n, delta) @ noise
