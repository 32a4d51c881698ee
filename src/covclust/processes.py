"""Exact-covariance Gaussian path generation for fBm/mBm and analytic covariance oracles.

Paths are sampled on the grid t_i = i*delta_t, i = 1..n (the process is
degenerate at t = 0), by factorizing the population covariance matrix and
pushing a seeded standard-normal vector through the factor. The covariance's
Gamma values come from `_gamma`, a numpy port of the cephes routine that
scipy.special.gamma runs, so this module needs numpy only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .hurst import HurstFunction

_JITTERS = (0.0, 1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8)
# Rows per block of the covariance assembly. Each temporary then holds at
# most _COV_BLOCK x n entries (4 MB at n = 2000) rather than n x n.
_COV_BLOCK = 256
# Cephes' rational approximation Gamma(2 + y) = P(y) / Q(y) on y in [0, 1).
_GAMMA_P = (
    1.60119522476751861407e-4,
    1.19135147006586384913e-3,
    1.04213797561761569935e-2,
    4.76367800457137231464e-2,
    2.07448227648435975150e-1,
    4.94214826801497100753e-1,
    9.99999999999999996796e-1,
)
_GAMMA_Q = (
    -2.31581873324120129819e-5,
    5.39605580493303397842e-4,
    -4.45641913851797240494e-3,
    1.18139785222060435552e-2,
    3.58236398605498653373e-2,
    -2.34591795718243348568e-1,
    7.14304917030273074085e-2,
    1.00000000000000000320e0,
)
# Elements per chunk of `_gamma`; its work buffers (128 KB each) stay in cache.
_GAMMA_CHUNK = 1 << 14


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


def _gamma(x: np.ndarray) -> np.ndarray:
    """Gamma on [1, 3], bit for bit as scipy.special.gamma computes it there.

    A numpy port of cephes' `Gamma`, the routine behind scipy.special.gamma,
    limited to the arguments of `build_cov_matrix`: 2H + 1 and H_i + H_j + 1,
    which lie in [1, 3] because HurstFunction holds every H in (0, 1). Below 1,
    where cephes steps up more than once, the result is wrong.

    Each element takes cephes' operations in cephes' order. x >= 3 steps down
    once (x -> x - 1, z = x); that changes no bit at 3 itself but keeps the
    port exact up to 4. x < 2 takes z = 1/x and x -> x + 1. Then y = x - 2,
    and the result is z * P(y) / Q(y), both by Horner's rule. So for x < 2,
    y is (x + 1) - 2, which is not x - 1 bit for bit. At y = 0 the ratio is
    exactly 1, so cephes' early return at x == 2 needs no branch.

    The work runs in chunks of _GAMMA_CHUNK elements with in-place ufuncs on
    preallocated buffers. The `test_gamma_matches_scipy_bitwise_*` tests in
    tests/test_processes.py pin it to scipy byte for byte.
    """
    x = np.ascontiguousarray(x, dtype=float)
    out = np.empty_like(x)
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    size = min(flat_x.size, _GAMMA_CHUNK)
    y, z, p, q, low = (np.empty(size) for _ in range(5))
    top = np.empty(size, dtype=bool)
    for start in range(0, flat_x.size, _GAMMA_CHUNK):
        xs = flat_x[start : start + _GAMMA_CHUNK]
        k = xs.size
        yk, zk, pk, qk, lk, tk = y[:k], z[:k], p[:k], q[:k], low[:k], top[:k]
        # The 0/1 factor `low` selects exactly (x + 0.0 == x, 0.0 / x + 1.0 ==
        # 1.0). Ufuncs and copies masked by x < 2, which splits these arguments
        # about evenly, ran 10-30 times slower than these unmasked passes.
        np.less(xs, 2.0, out=lk)
        np.divide(lk, xs, out=zk)
        np.subtract(1.0, lk, out=pk)
        zk += pk
        np.add(xs, lk, out=yk)
        np.greater_equal(xs, 3.0, out=tk)
        steps = np.flatnonzero(tk)
        yk[steps] -= 1.0
        zk[steps] = yk[steps]
        yk -= 2.0
        np.multiply(yk, _GAMMA_P[0], out=pk)
        for c in _GAMMA_P[1:-1]:
            pk += c
            pk *= yk
        pk += _GAMMA_P[-1]
        np.multiply(yk, _GAMMA_Q[0], out=qk)
        for c in _GAMMA_Q[1:-1]:
            qk += c
            qk *= yk
        qk += _GAMMA_Q[-1]
        pk *= zk
        np.divide(pk, qk, out=flat_out[start : start + k])
    return out


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
    g = _gamma(2.0 * h + 1.0) * np.sin(np.pi * h)
    n = times.size
    cov = np.empty((n, n))
    for r0 in range(0, n, _COV_BLOCK):
        r1 = min(r0 + _COV_BLOCK, n)
        rows, cols = slice(r0, r1), slice(r0, n)
        a = h[rows, None] + h[None, cols]
        d = np.sqrt(np.outer(g[rows], g[cols])) / (
            2.0 * _gamma(a + 1.0) * np.sin(np.pi * a / 2.0)
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
