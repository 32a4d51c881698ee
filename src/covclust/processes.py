"""Exact-covariance Gaussian path generation for fBm/mBm and analytic covariance oracles.

Paths are sampled on the grid t_i = i*delta_t, i = 1..n (the process is
degenerate at t = 0), by factorizing the population covariance matrix and
pushing a seeded standard-normal vector through the factor. The covariance's
Gamma values come from `_gamma`, a numpy port of the cephes routine that
scipy.special.gamma runs, so this module needs numpy only. The covariance is
assembled in row blocks. On w > 1 usable CPUs, the calling thread and w - 1
helper threads (w at most one per _COV_BLOCK rows of the matrix) evaluate
blocks of _COV_BLOCK // w rows, each writing its own disjoint entries, so
neither the matrix nor the rows in flight depend on the CPU count.

Factors are cached, least recently used first out, within _FACTOR_BYTES. On a
miss the covariance is built first, then old factors are evicted until the new
one fits, and only then is the covariance factored: a failed build evicts
nothing, and a new factor is never held beside the factors it displaces.
"""

from __future__ import annotations

import math
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .hurst import HurstFunction

_JITTERS = (1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8)
# Rows in flight in the covariance assembly, over all its threads. Its
# workspace then holds 4 x _COV_BLOCK x n floats (16 MB at n = 2000) rather
# than n x n.
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
        if not 0 < self.delta_t < math.inf:
            raise ValueError(f"delta_t must be positive and finite, got {self.delta_t}")

    def __len__(self) -> int:
        return self.values.size

    def prefix(self, n: int) -> "SamplePath":
        """The path truncated to its first n values, 2 <= n <= len(self)."""
        if not 2 <= n <= len(self):
            raise ValueError(f"prefix length must lie in [2, {len(self)}], got {n}")
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


def _gamma(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Gamma on [1, 3], bit for bit as scipy.special.gamma computes it there.

    A numpy port of cephes' `Gamma`, the routine behind scipy.special.gamma,
    limited to the arguments of `build_cov_matrix`: 2H + 1 and H_i + H_j + 1,
    which lie in [1, 3] because HurstFunction holds every H in (0, 1). Below 1,
    where cephes steps up more than once, the result is wrong.

    Each element takes cephes' operations in cephes' order. x < 2 takes
    z = 1/x and x -> x + 1. Then y = x - 2, and the result is z * P(y) / Q(y),
    both by Horner's rule. So for x < 2, y is (x + 1) - 2, which is not x - 1
    bit for bit. At y = 0 the ratio is exactly 1, so cephes' early return at
    x == 2 needs no branch. Cephes steps x >= 3 down once (x -> x - 1,
    z = x); at 3 itself that changes no bit, so it is left out.

    The work runs in chunks of _GAMMA_CHUNK elements with in-place ufuncs on
    preallocated buffers. A chunk is read before its result is written, so
    `out` (C-contiguous, shaped like x) may be x itself. The
    `test_gamma_matches_scipy_bitwise_*` tests in tests/test_processes.py pin
    it to scipy byte for byte.
    """
    x = np.ascontiguousarray(x, dtype=float)
    if out is None:
        out = np.empty_like(x)
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    size = min(flat_x.size, _GAMMA_CHUNK)
    y, z, p, q, low = (np.empty(size) for _ in range(5))
    for start in range(0, flat_x.size, _GAMMA_CHUNK):
        xs = flat_x[start : start + _GAMMA_CHUNK]
        k = xs.size
        yk, zk, pk, qk, lk = y[:k], z[:k], p[:k], q[:k], low[:k]
        # The 0/1 factor `low` selects exactly (x + 0.0 == x, 0.0 / x + 1.0 ==
        # 1.0). Ufuncs and copies masked by x < 2, which splits these arguments
        # about evenly, ran 10-30 times slower than these unmasked passes.
        np.less(xs, 2.0, out=lk)
        np.divide(lk, xs, out=zk)
        np.subtract(1.0, lk, out=pk)
        zk += pk
        np.add(xs, lk, out=yk)
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


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def build_cov_matrix(f: HurstFunction, times) -> np.ndarray:
    """Population covariance matrix of the mBm on a strictly increasing time grid.

    Entry (i, j) is d_factor(H_i, H_j) * (|t_j|^a + |t_i|^a - |t_j - t_i|^a)
    with a = H_i + H_j. Only the upper triangle is evaluated, in row blocks
    written into one preallocated matrix; each block is also written,
    transposed, below the diagonal. The square a block holds on the diagonal
    is written as evaluated: every operation of an entry is symmetric in
    (i, j), so its lower half equals its upper half bit for bit and the
    matrix is exactly symmetric.

    Blocks have _COV_BLOCK // w rows, with w = min(usable CPUs,
    ceil(n / _COV_BLOCK)). The calling thread and w - 1 helper threads take
    them in turn and run numpy ufuncs, which release the interpreter lock; at
    w = 1 no thread is started. Each thread evaluates its blocks into its own
    workspace of 4 x (_COV_BLOCK // w) x n floats, all allocated by the calling
    thread, so the build holds about 4 x _COV_BLOCK x n floats whatever the CPU
    count. The block of rows [r0, r1) writes only rows [r0, r1) from column r0
    on and columns [r0, r1) from row r1 on, so no two blocks write the same
    entry. Every entry takes the same ufuncs on the same operands in any block,
    so the matrix is bitwise the same for any w. The helpers are joined before
    the function returns, also when a block raises; the first error is then
    raised in the calling thread.
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
    workers = min(_usable_cpus(), -(-n // _COV_BLOCK))
    step = _COV_BLOCK // workers

    def fill(r0: int, work: np.ndarray, finite: np.ndarray) -> None:
        # d * (|t_j|^a + |t_i|^a - |t_j - t_i|^a) with d = sqrt(g_i g_j) /
        # (2 G(a + 1) sin(pi a / 2)), ufunc by ufunc in evaluation order, each
        # result written into a C-contiguous slice of this thread's workspace
        r1 = min(r0 + step, n)
        rows, cols = slice(r0, r1), slice(r0, n)
        size, shape = (r1 - r0) * (n - r0), (r1 - r0, n - r0)
        a, den, d, tmp = (buf[:size].reshape(shape) for buf in work)
        np.add(h[rows, None], h[None, cols], out=a)
        np.add(a, 1.0, out=den)
        _gamma(den, out=den)
        np.multiply(2.0, den, out=den)
        np.multiply(np.pi, a, out=tmp)
        np.divide(tmp, 2.0, out=tmp)
        np.sin(tmp, out=tmp)
        np.multiply(den, tmp, out=den)
        np.multiply(g[rows, None], g[None, cols], out=d)
        np.sqrt(d, out=d)
        np.divide(d, den, out=d)
        if not np.isfinite(d, out=finite[:size].reshape(shape)).all():
            raise ValueError("non-finite coupling factor in covariance assembly")
        block = den  # the denominator is spent; its slice takes the block
        np.power(tt[None, cols], a, out=block)
        np.power(tt[rows, None], a, out=tmp)
        np.add(block, tmp, out=block)
        np.subtract(times[None, cols], times[rows, None], out=tmp)
        np.abs(tmp, out=tmp)
        np.power(tmp, a, out=tmp)
        np.subtract(block, tmp, out=block)
        np.multiply(d, block, out=block)
        cov[rows, r0:] = block
        cov[r1:, rows] = block[:, r1 - r0 :].T

    # Every thread's workspace is allocated here. What a helper allocates comes
    # from its own glibc malloc arena, which stays resident after the helper
    # exits: helpers that allocated their own temporaries raised the peak of
    # `simulate --n 2000` by 11 MB from its second Hurst profile on.
    rows_max = min(step, n)
    work = np.empty((workers, 4, rows_max * n))
    finite = np.empty((workers, rows_max * n), dtype=bool)
    pending = iter(range(0, n, step))
    lock = threading.Lock()
    errors = []

    def drain(k: int) -> None:
        while not errors:
            with lock:
                r0 = next(pending, None)
            if r0 is None:
                return
            try:
                fill(r0, work[k], finite[k])
            except BaseException as exc:  # raised again in the calling thread
                errors.append(exc)

    helpers = [threading.Thread(target=drain, args=(k,)) for k in range(1, workers)]
    for helper in helpers:
        helper.start()
    try:
        drain(0)
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]
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

    cov must be exactly symmetric: the function factors its transposed view,
    which then holds the same values. For a C-ordered cov that view is
    F-ordered, so numpy copies it into LAPACK's column-major buffer
    contiguously rather than with a stride of n.

    The matrix itself is factored first. Only if that fails is additive
    diagonal jitter tried, escalating 1e-14 -> 1e-8 before giving up. Every
    level shifts a fresh copy of cov in one reused array, bit for bit
    cov + jitter * np.eye(n).
    """
    try:
        return np.linalg.cholesky(cov.T)
    except np.linalg.LinAlgError:
        pass
    shifted = np.empty(cov.shape)
    for jitter in _JITTERS:
        np.add(cov, 0.0, out=shifted)
        shifted.flat[:: len(shifted) + 1] += jitter
        try:
            return np.linalg.cholesky(shifted.T)
        except np.linalg.LinAlgError:
            continue
    raise FactorizationError(
        "covariance factorization failed after maximum jitter 1e-8; "
        "the kernel is numerically degenerate"
    )


# Bytes of factors kept by `_factor`. A factor takes 8 n^2 bytes. The budget
# holds the largest experiment working set, 10 factors at n = 305 (7.4 MB: the
# 5 mono and 5 sin groups of an offline run at full path length); two factors
# at n = 1600 (41.0 MB), so draws alternating between two Hurst values factor
# each once; and one at n = 2000 (32.0 MB), shared by the draws of a `simulate`.
# Two n = 2000 factors do not fit, so a new Hurst profile displaces the last
# one rather than staying resident. A factor larger than the budget is kept alone.
_FACTOR_BYTES = 48 * 2**20
# Factors keyed by kind and generation arguments, least recently used first;
# safe because HurstFunction is frozen/hashable and factors are never written to.
_FACTORS: OrderedDict = OrderedDict()


def _factor(key: tuple, build_cov) -> np.ndarray:
    """Cached Cholesky factor of build_cov(), evicting between build and factoring."""
    factor = _FACTORS.get(key)
    if factor is not None:
        _FACTORS.move_to_end(key)
        return factor
    cov = build_cov()
    held = sum(f.nbytes for f in _FACTORS.values())
    while _FACTORS and held + cov.nbytes > _FACTOR_BYTES:
        held -= _FACTORS.popitem(last=False)[1].nbytes
    factor = _FACTORS[key] = cholesky_with_jitter(cov)
    return factor


def _mbm_factor(f: HurstFunction, n: int, delta_t: float) -> np.ndarray:
    return _factor(("mbm", f, n, delta_t),
                   lambda: build_cov_matrix(f, delta_t * np.arange(1, n + 1)))


def _fgn_factor(h: float, n: int, delta: float) -> np.ndarray:
    return _factor(("fgn", h, n, delta), lambda: fbm_increment_cov_matrix(h, 1.0, n, delta))


def sample_path(f: HurstFunction, n: int, delta_t: float, seed, id: str | None = None) -> SamplePath:
    """Draw one zero-mean Gaussian path with the exact mBm covariance.

    Deterministic given the seed; seeds may be integers or int sequences so
    that per-path streams can be derived from (experiment seed, path index)
    and generated in any order.
    """
    if n < 2:
        raise ValueError("need n >= 2 samples")
    if not 0 < delta_t < math.inf:
        raise ValueError(f"delta_t must be positive and finite, got {delta_t}")
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
