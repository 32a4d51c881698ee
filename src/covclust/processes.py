"""Exact-covariance Gaussian path generation for fBm/mBm and analytic covariance oracles.

Paths are sampled on the grid t_i = i*delta_t, i = 1..n (the process is
degenerate at t = 0), by factorizing the population covariance matrix and
pushing a seeded standard-normal vector through the factor. The covariance's
Gamma values come from `_gamma`, a numpy port of the cephes routine that
scipy.special.gamma runs, so this module needs numpy only. The covariance is
assembled in row blocks, after the matrix itself is allocated: an n too
large fails there, with nothing else allocated. On w > 1 usable CPUs, the
calling thread and w - 1 helper threads (w at most one per _THREAD_ROWS rows
of the matrix) evaluate blocks of _COV_BLOCK // w rows, each writing its own
disjoint entries, so neither the matrix nor the _COV_BLOCK rows in flight
(3 x _COV_BLOCK x n floats of workspace) depend on the CPU count. Each
thread owns a fixed set of blocks, one wide and one narrow from every run of
2w, so the threads share no queue and no lock. They run with numpy's
floating-point warnings silenced, and each finished block is checked once:
a non-finite entry, such as |t|^(H_i + H_j) overflowing on a wide grid, raises
FactorizationError.

The covariance is factored in place, by the dpotrf of the OpenBLAS that numpy
ships, bound once through ctypes: the factor is the covariance's own buffer,
with the bytes numpy.linalg.cholesky would give, so a new factor takes one
n x n array rather than three. Where that library cannot be bound,
numpy.linalg.cholesky factors a copy, with the same bytes at the old peak.

Factors are cached, least recently used first out, within _FACTOR_BYTES. On a
miss old factors are evicted until the new one's 8 n^2 bytes fit, and only
then is the covariance built and factored, so a new covariance is never held
beside the factors it displaces. A build that fails after an eviction costs a
later re-factorization of what it evicted.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .hurst import HurstFunction

_JITTERS = (1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8)
# Rows in flight in the covariance assembly, over all its threads. Its
# workspace then holds 3 x _COV_BLOCK x n floats (3 MB at n = 2000) rather
# than n x n. The factoring copies its triangles this many rows at a time.
_COV_BLOCK = 64
# The covariance assembly starts at most one thread per this many rows.
_THREAD_ROWS = 256
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


class FactorizationError(np.linalg.LinAlgError):
    """The covariance has a non-finite entry, or is not factorizable even with maximum jitter."""


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


def _gamma(x: np.ndarray, s1: np.ndarray | None = None,
           s2: np.ndarray | None = None) -> np.ndarray:
    """Gamma on [1, 3], written over x, bit for bit as scipy.special.gamma computes it there.

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

    x is a float array, and s1 and s2 are scratch arrays of its shape (new
    ones when None); any of them may be a strided view. The
    `test_gamma_matches_scipy_bitwise_*` tests in tests/test_processes.py pin
    it to scipy byte for byte.
    """
    low, y = (np.empty_like(x), np.empty_like(x)) if s1 is None else (s1, s2)
    # The 0/1 factor `low` selects exactly (x + 0.0 == x, 0.0 / x + 1.0 ==
    # 1.0). Ufuncs and copies masked by x < 2, which splits these arguments
    # about evenly, ran 10-30 times slower than these unmasked passes.
    np.less(x, 2.0, out=low)
    np.add(x, low, out=y)
    y -= 2.0
    np.divide(low, x, out=x)
    np.subtract(1.0, low, out=low)
    x += low  # z = low / x + (1 - low)
    p = np.multiply(y, _GAMMA_P[0], out=low)
    for c in _GAMMA_P[1:-1]:
        p += c
        p *= y
    p += _GAMMA_P[-1]
    p *= x
    q = np.multiply(y, _GAMMA_Q[0], out=x)
    for c in _GAMMA_Q[1:-1]:
        q += c
        q *= y
    q += _GAMMA_Q[-1]
    return np.divide(p, q, out=x)


def cov_fits(n: int) -> bool:
    """Whether the n x n covariance's 8 n^2 bytes fit np.intp, so numpy can address it."""
    return 8 * n * n <= np.iinfo(np.intp).max


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def build_cov_matrix(f: HurstFunction, times) -> np.ndarray:
    """Population covariance matrix of the mBm on a strictly increasing time grid.

    Entry (i, j) is d_factor(H_i, H_j) * (|t_j|^a + |t_i|^a - |t_j - t_i|^a)
    with a = H_i + H_j. The n x n matrix is allocated first, before any array
    of n values, so `times` may be any sized sequence that numpy converts
    (`_mbm_factor` passes a `_Grid`) and an n too large raises MemoryError
    with nothing else allocated. Only the upper triangle is evaluated, in row
    blocks written into that matrix; each block is also written,
    transposed, below the diagonal. The square a block holds on the diagonal
    is written as evaluated: every operation of an entry is symmetric in
    (i, j), so its lower half equals its upper half bit for bit and the
    matrix is exactly symmetric.

    Blocks have max(1, _COV_BLOCK // w) rows, with w = min(usable CPUs,
    ceil(n / _THREAD_ROWS)). Thread k (the calling thread is k = 0, the w - 1
    helpers k = 1 .. w - 1) evaluates block b exactly when b mod 2w is k or
    2w - 1 - k. Blocks narrow down the upper triangle, so pairing the k-th
    widest and the k-th narrowest of every run of 2w balances the work
    without a shared queue. The threads run numpy ufuncs, which release the
    interpreter lock; at w = 1 no thread is started. Each thread evaluates
    the terms of its blocks into its own workspace of 3 x (_COV_BLOCK // w) x
    n floats, allocated by the calling thread, and sums the bracket in the
    block's own rows of the matrix; `_gamma` takes its scratch from the same
    buffers and rows. So the build holds about 3 x _COV_BLOCK x n floats
    (3 MB at n = 2000) whatever the CPU count. The
    block of rows [r0, r1) writes only rows [r0, r1) from column r0 on and
    columns [r0, r1) from row r1 on, so no two blocks write the same entry.
    Every entry takes the same ufuncs on the same operands in any block, so
    the matrix is bitwise the same for any w and any _COV_BLOCK.

    Each thread silences numpy's floating-point warnings for itself (a new
    thread does not inherit the caller's errstate), and each finished block
    is checked once for non-finite entries, which raise FactorizationError:
    on a grid wide enough for |t|^a to overflow, or where the coupling factor
    is not finite. The helpers are joined before the function returns, also
    when a block raises; a thread stops at its first error, the others finish
    their own blocks, and the first error recorded is raised in the calling
    thread.
    """
    n = len(times)
    cov = np.empty((n, n))  # first: an n too large fails here, before any array of n values
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or n < 1:
        raise ValueError("times must be a non-empty 1-d grid")
    if n > 1 and not np.all(np.diff(times) > 0):
        raise ValueError("times must be strictly increasing")
    h = f.values_on(times)
    tt = np.abs(times)
    g = _gamma(2.0 * h + 1.0) * np.sin(np.pi * h)
    workers = min(_usable_cpus(), -(-n // _THREAD_ROWS))
    step = max(1, _COV_BLOCK // workers)

    def fill(r0: int, work: np.ndarray) -> None:
        # d * (|t_j|^a + |t_i|^a - |t_j - t_i|^a) with d = sqrt(g_i g_j) /
        # (2 G(a + 1) sin(pi a / 2)), ufunc by ufunc in evaluation order: the
        # terms of d in this thread's workspace, the bracket in the block's
        # own rows of cov, which are Gamma's scratch until |t_j|^a is written
        r1 = min(r0 + step, n)
        rows, cols = slice(r0, r1), slice(r0, n)
        size, shape = (r1 - r0) * (n - r0), (r1 - r0, n - r0)
        a, den, d = (buf[:size].reshape(shape) for buf in work)
        block = cov[rows, r0:]
        np.add(h[rows, None], h[None, cols], out=a)
        np.add(a, 1.0, out=den)
        _gamma(den, d, block)
        np.multiply(2.0, den, out=den)
        np.multiply(np.pi, a, out=d)
        np.divide(d, 2.0, out=d)
        np.sin(d, out=d)
        np.multiply(den, d, out=den)
        np.multiply(g[rows, None], g[None, cols], out=d)
        np.sqrt(d, out=d)
        np.divide(d, den, out=d)
        np.power(tt[None, cols], a, out=block)
        np.power(tt[rows, None], a, out=den)  # the denominator is spent
        np.add(block, den, out=block)
        np.subtract(times[None, cols], times[rows, None], out=den)
        np.abs(den, out=den)
        np.power(den, a, out=den)
        np.subtract(block, den, out=block)
        np.multiply(d, block, out=block)
        finite = work[1].view(bool)[:size].reshape(shape)  # the spent denominator's bytes
        if not np.isfinite(block, out=finite).all():
            raise FactorizationError("non-finite entry in covariance assembly")
        cov[r1:, rows] = block[:, r1 - r0 :].T

    # Every thread's workspace is allocated here. What a helper allocates
    # comes from its own glibc malloc arena, which stays resident after the
    # helper exits: helpers that allocated their own temporaries raised the
    # peak of `simulate --n 2000` by 11 MB from its second Hurst profile on.
    size = min(step, n) * n
    work = np.empty((workers, 3, size))
    errors = []

    @np.errstate(all="ignore")  # per call: a new thread starts with numpy's defaults
    def own(k: int) -> None:
        try:
            for b, r0 in enumerate(range(0, n, step)):
                if b % (2 * workers) in (k, 2 * workers - 1 - k):
                    fill(r0, work[k])
        except BaseException as exc:  # raised again in the calling thread
            errors.append(exc)

    helpers = [threading.Thread(target=own, args=(k,)) for k in range(1, workers)]
    for helper in helpers:
        helper.start()
    try:
        own(0)
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


def _bind_dpotrf():
    """LAPACK's dpotrf from the OpenBLAS that numpy ships, or None where it is not found.

    numpy.linalg.cholesky runs the same routine of the same library. That
    build takes 64-bit integers. numpy's wheels keep the library in
    numpy.libs beside the package on Linux, and in numpy/.dylibs on macOS.
    """
    root = Path(np.__file__).resolve().parent
    for lib in sorted([*(root.parent / "numpy.libs").glob("*openblas*"),
                       *(root / ".dylibs").glob("*openblas*")]):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_dpotrf_64_
        except (OSError, AttributeError):
            continue
        int64 = ctypes.POINTER(ctypes.c_int64)
        matrix = np.ctypeslib.ndpointer(np.float64, ndim=2, flags=("C_CONTIGUOUS", "WRITEABLE"))
        fn.argtypes = [ctypes.c_char_p, int64, matrix, int64, int64]
        fn.restype = None
        return fn
    return None


_DPOTRF = _bind_dpotrf()


def _cholesky_in_place(a: np.ndarray) -> bool:
    """Overwrite a with its lower Cholesky factor; False, if a is not positive definite.

    a is C-ordered and exactly symmetric, so its memory is also the
    column-major matrix that numpy.linalg.cholesky would copy it into, and
    dpotrf with uplo 'L' factors it there. That leaves L transposed in the
    upper triangle of a, diagonal included, and the strict lower triangle
    untouched. L is then copied below the diagonal, _COV_BLOCK rows at a
    time, and the strict upper triangle zeroed. A failed dpotrf has
    overwritten part of the upper triangle and the diagonal, never the strict
    lower triangle. Without the binding numpy.linalg.cholesky factors a copy,
    which replaces a only on success.
    """
    if _DPOTRF is None:
        try:
            a[...] = np.linalg.cholesky(a.T)
        except np.linalg.LinAlgError:
            return False
        return True
    n, info = ctypes.c_int64(len(a)), ctypes.c_int64()
    _DPOTRF(b"L", ctypes.byref(n), a, ctypes.byref(n), ctypes.byref(info))
    if info.value != 0:
        return False
    for r0 in range(0, len(a), _COV_BLOCK):
        r1 = r0 + _COV_BLOCK
        a[r1:, r0:r1] = a[r0:r1, r1:].T
        a[r0:r1, r1:] = 0.0
        a[r0:r1, r0:r1] = np.tril(a[r0:r1, r0:r1].T)
    return True


def cholesky_with_jitter(cov: np.ndarray) -> np.ndarray:
    """Lower-triangular factor of a symmetric PSD matrix, with escalating jitter.

    cov must be a C-ordered, writable and exactly symmetric float64 matrix,
    and is consumed: it is factored in place, and the factor returned is cov
    itself, holding the bytes of numpy.linalg.cholesky(cov). A new factor so
    takes one n x n array rather than three (the covariance, numpy's
    column-major copy of it and numpy's output). Where numpy's bundled
    LAPACK cannot be bound, numpy.linalg.cholesky factors a copy instead:
    the same bytes, at the old peak.

    The matrix itself is factored first. Only if that fails is additive
    diagonal jitter tried, escalating 1e-14 -> 1e-8 before giving up. Before
    each level, the upper triangle is restored from the strict lower one,
    which a failed factorization leaves intact, and the diagonal from a saved
    copy. Adding 0.0 everywhere (-0.0 turns to +0.0) and the jitter on the
    diagonal then makes cov bit for bit cov + jitter * np.eye(n).
    """
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError(f"cholesky_with_jitter needs a square matrix, got shape {cov.shape}")
    diagonal = cov.diagonal().copy()
    if _cholesky_in_place(cov):
        return cov
    for jitter in _JITTERS:
        for r0 in range(0, len(cov), _COV_BLOCK):
            r1 = r0 + _COV_BLOCK
            cov[r0:r1, r1:] = cov[r1:, r0:r1].T
            square = cov[r0:r1, r0:r1]
            square[...] = np.tril(square) + np.triu(square.T, 1)
        cov += 0.0
        np.fill_diagonal(cov, diagonal + jitter)
        if _cholesky_in_place(cov):
            return cov
    raise FactorizationError(
        "covariance factorization failed after maximum jitter 1e-8; "
        "the kernel is numerically degenerate"
    )


# Bytes of factors kept by `_factor`. A factor takes 8 n^2 bytes, which are
# made room for before its covariance is built. The budget
# holds the largest experiment working set, 10 factors at n = 305 (7.4 MB: the
# 5 mono and 5 sin groups of an offline run at full path length); two factors
# at n = 1600 (41.0 MB), so draws alternating between two Hurst values factor
# each once; and one at n = 2000 (32.0 MB), shared by the draws of a `simulate`.
# Two n = 2000 factors do not fit, so a new Hurst profile evicts the last one
# before it builds its own covariance, and the two are never resident together.
# A factor larger than the budget is kept alone.
_FACTOR_BYTES = 48 * 2**20
# Factors keyed by kind and generation arguments, least recently used first;
# safe because HurstFunction is frozen/hashable and factors are never written to.
_FACTORS: OrderedDict = OrderedDict()


def _factor(key: tuple, n: int, build_cov) -> np.ndarray:
    """Cached Cholesky factor of build_cov(), an n x n covariance, in the array it returns.

    Old factors are evicted until the new one's 8 n^2 bytes fit, before the
    build: a new covariance is never held beside the factors it displaces.
    """
    factor = _FACTORS.get(key)
    if factor is not None:
        _FACTORS.move_to_end(key)
        return factor
    held = sum(f.nbytes for f in _FACTORS.values())
    while _FACTORS and held + 8 * n * n > _FACTOR_BYTES:
        held -= _FACTORS.popitem(last=False)[1].nbytes
    factor = _FACTORS[key] = cholesky_with_jitter(build_cov())
    return factor


@dataclass(frozen=True)
class _Grid:
    """The grid delta_t * (1, ..., n), made only when numpy reads it.

    So `build_cov_matrix` allocates the n x n covariance before any array of
    n values: an n too large fails with nothing else allocated.
    """

    n: int
    delta_t: float

    def __len__(self) -> int:
        return self.n

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return self.delta_t * np.arange(1, self.n + 1)


def _mbm_factor(f: HurstFunction, n: int, delta_t: float) -> np.ndarray:
    return _factor(("mbm", f, n, delta_t), n, lambda: build_cov_matrix(f, _Grid(n, delta_t)))


def _fgn_factor(h: float, n: int, delta: float) -> np.ndarray:
    return _factor(("fgn", h, n, delta), n,
                   lambda: fbm_increment_cov_matrix(h, 1.0, n, delta))


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
