import re
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.special import gamma as scipy_gamma

from covclust import (
    FactorizationError,
    HurstFunction,
    SamplePath,
    build_cov_matrix,
    cholesky_with_jitter,
    d_factor,
    fbm_increment_cov_matrix,
    sample_fbm_increments,
    sample_path,
)
from covclust import processes
from covclust.processes import _gamma

from naive_oracles import dense_cov_matrix, fbm_increment_cov, mbm_cov

# Frozen high-precision oracle values (computed independently with an
# arbitrary-precision gamma implementation before the build).
D_FACTOR_03_07 = 0.4261564452817933072
MONO_COV_10_10 = 10.964781961431850131
MONO_COV_10_20 = 11.964636823194221756
MONO_COV_20_20 = 25.416303938318671963
FGN_LAG1_H07 = 0.31950791077289425937  # (2**1.4 - 2) / 2
JITTERS = (1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8)


def test_d_factor_identity():
    for h in np.arange(0.1, 0.95, 0.1):
        assert d_factor(h, h) == pytest.approx(0.5, abs=1e-12)


def test_d_factor_oracle():
    assert d_factor(0.3, 0.7) == pytest.approx(D_FACTOR_03_07, rel=1e-14)


def test_d_factor_domain():
    with pytest.raises(ValueError):
        d_factor(0.0, 0.5)
    with pytest.raises(ValueError):
        d_factor(0.5, 1.0)


def test_brownian_kernel_is_min():
    f = HurstFunction.constant(0.5)
    times = np.arange(1.0, 11.0)
    expected = np.minimum(times[:, None], times[None, :])
    np.testing.assert_allclose(build_cov_matrix(f, times), expected, atol=1e-12)


def test_mbm_cov_diagonal_and_zero_time():
    f = HurstFunction.monotonic(0.3, 10.0)
    t = 4.0
    assert mbm_cov(f, t, t) == pytest.approx(t ** (2 * f(t)), rel=1e-12)
    assert mbm_cov(f, 0.0, 3.0) == pytest.approx(0.0, abs=1e-12)


def test_mbm_cov_oracle_values():
    f = HurstFunction.monotonic(0.2, 100.0)
    cov = build_cov_matrix(f, np.array([10.0, 20.0]))
    assert cov[0, 0] == pytest.approx(MONO_COV_10_10, rel=1e-12)
    assert cov[0, 1] == pytest.approx(MONO_COV_10_20, rel=1e-12)
    assert cov[1, 1] == pytest.approx(MONO_COV_20_20, rel=1e-12)
    assert cov[1, 0] == cov[0, 1]


def test_build_cov_matrix_exact_symmetry():
    f = HurstFunction.periodic(0.3, 5.0)
    cov = build_cov_matrix(f, np.linspace(0.5, 4.5, 20))
    assert np.array_equal(cov, cov.T)


class TabulatedHurst:
    """A profile given by one H per instant of the grid it is evaluated on."""

    def __init__(self, values):
        self.values = np.array(values, dtype=float)

    def values_on(self, times):
        assert len(times) == self.values.size
        return self.values.copy()


BLOCKED_BUILD_PROFILES = {
    "constant": lambda n: HurstFunction.constant(0.7),
    "monotonic": lambda n: HurstFunction.monotonic(0.3, 1.0),
    "periodic": lambda n: HurstFunction.periodic(-0.3, 1.0),
    "tabulated": lambda n: TabulatedHurst(
        0.5 + 0.4 * np.random.default_rng(n).uniform(-1.0, 1.0, n)
    ),
}


@pytest.mark.parametrize("kind", sorted(BLOCKED_BUILD_PROFILES))
@pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 255, 256, 257, 600])
def test_build_cov_matrix_bitwise_matches_dense(n, kind):
    # sizes straddle the serial and the threaded row-block edges; every entry
    # must equal the one-shot formula
    f = BLOCKED_BUILD_PROFILES[kind](n)
    times = np.arange(1, n + 1) / n
    assert build_cov_matrix(f, times).tobytes() == dense_cov_matrix(f, times).tobytes()


@pytest.mark.parametrize("n", [600, 2000])
def test_build_cov_matrix_same_bytes_for_any_worker_count(monkeypatch, n):
    # 1 CPU builds serially in 64-row blocks; more CPUs give as many threads
    # (at most one per 256 rows), each with its fixed blocks of 64 // w rows. At
    # n = 2000, 8 threads take 250 blocks of 8 rows, so the last run of 2w = 16
    # has 10.
    f = HurstFunction.periodic(0.3, 1.0)
    times = np.arange(1, n + 1) / n
    threads = threading.active_count()
    built = []
    for cpus in (1, 2, 3, 4, 8):
        monkeypatch.setattr(processes, "_usable_cpus", lambda: cpus)
        built.append(build_cov_matrix(f, times).tobytes())
        assert threading.active_count() == threads
    assert all(b == built[0] for b in built[1:])


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("kind", ["constant", "monotonic", "periodic"])
@pytest.mark.parametrize("n", [127, 128, 129, 600])
def test_build_cov_matrix_diagonal_squares_are_exactly_symmetric(monkeypatch, n, kind, cpus):
    # each block writes its diagonal square as evaluated, unmirrored; the
    # square's two halves agree only because every operation of an entry is
    # symmetric in (i, j). 1 and 2 CPUs give squares of 64 and 32 rows.
    monkeypatch.setattr(processes, "_usable_cpus", lambda: cpus)
    f = BLOCKED_BUILD_PROFILES[kind](n)
    cov = build_cov_matrix(f, np.arange(1, n + 1) / n)
    assert cov.tobytes() == cov.T.copy().tobytes()


@pytest.mark.parametrize("cpus", [1, 2, 8])
def test_build_cov_matrix_memory_is_the_matrix_and_its_workspace(monkeypatch, cpus):
    # beside the 8 n^2-byte matrix the build holds 3 x _COV_BLOCK x n floats of
    # row buffers, over all its threads; _gamma's scratch is in those buffers
    monkeypatch.setattr(processes, "_usable_cpus", lambda: cpus)
    n = 2000
    workspace = 8 * 3 * processes._COV_BLOCK * n
    f = HurstFunction.periodic(0.3, 1.0)
    times = np.arange(1, n + 1) / n
    tracemalloc.start()
    try:
        build_cov_matrix(f, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n**2 + workspace + 2**20


def test_non_finite_coupling_in_a_worker_block_fails_like_serial(monkeypatch):
    # a NaN Gamma in every block of a helper thread, and in every block but the
    # first on the calling thread; whichever fails first, the error is the serial
    # one, no factor is cached or evicted, and no thread is left
    n = 600
    processes._FACTORS.clear()
    sample_path(HurstFunction.constant(0.5), 6, 1.0 / 6, seed=0)
    cached = [(key, id(factor)) for key, factor in processes._FACTORS.items()]
    real = processes._gamma

    def nan_in_blocks(x, s1=None, s2=None):
        out = real(x, s1, s2)
        helper = threading.current_thread() is not threading.main_thread()
        if out.ndim == 2 and (helper or out.shape[1] < n):
            out[-1, -1] = np.nan
        return out

    monkeypatch.setattr(processes, "_gamma", nan_in_blocks)
    threads = threading.active_count()
    messages = []
    for cpus in (1, 2):
        monkeypatch.setattr(processes, "_usable_cpus", lambda: cpus)
        with pytest.raises(ValueError) as raised:
            sample_path(HurstFunction.periodic(0.3, 1.0), n, 1.0 / n, seed=0)
        messages.append(str(raised.value))
        assert [(key, id(factor)) for key, factor in processes._FACTORS.items()] == cached
        assert threading.active_count() == threads
    assert messages == ["non-finite entry in covariance assembly"] * 2


def _gamma_arguments(f, n):
    # the arguments build_cov_matrix passes: 2h + 1 and (h_i + h_j) + 1
    h = f.values_on(np.arange(1, n + 1) / n)
    return np.concatenate([2.0 * h + 1.0, (h[:, None] + h[None, :] + 1.0).ravel()])


# H as close to 0 and 1 as HurstFunction allows; 2h + 1 rounds to exactly 3.0 at the top
H_EDGES = (5e-324, np.nextafter(0.0, 1.0) * 2, 1e-300, 1e-17, np.nextafter(1.0, 0.0))
GAMMA_PROFILES = {
    "constant": lambda n: [HurstFunction.constant(h) for h in (0.01, 0.5, 0.7, 0.99)],
    "monotonic": lambda n: [HurstFunction.monotonic(h, 1.0) for h in (0.1, 0.3, 0.4999, -0.4)],
    "periodic": lambda n: [HurstFunction.periodic(h, 1.0) for h in (0.3, -0.3, 0.49, -0.49)],
    "tabulated": lambda n: [
        TabulatedHurst(np.random.default_rng(n).choice(H_EDGES, n)),
        TabulatedHurst(np.random.default_rng(n).uniform(0.0, 1.0, n).clip(5e-324)),
    ],
}


def test_gamma_matches_scipy_bitwise_random():
    x = np.random.default_rng(11).uniform(1.0, 3.0, 1_200_000)
    assert _gamma(x.copy()).tobytes() == scipy_gamma(x).tobytes()


def test_gamma_matches_scipy_bitwise_edges():
    edges = [1.0, 2.0, 3.0]
    edges += [np.nextafter(e, d) for e in edges for d in (0.0, 4.0)]
    x = np.array(edges)
    assert _gamma(x.copy()).tobytes() == scipy_gamma(x).tobytes()
    assert _gamma(np.array([1.0, 2.0, 3.0])).tolist() == [1.0, 1.0, 2.0]


@pytest.mark.parametrize("kind", sorted(GAMMA_PROFILES))
def test_gamma_matches_scipy_bitwise_on_hurst_profiles(kind):
    for n in (7, 300):
        for f in GAMMA_PROFILES[kind](n):
            x = _gamma_arguments(f, n)
            assert x.min() >= 1.0 and x.max() <= 3.0
            assert _gamma(x.copy()).tobytes() == scipy_gamma(x).tobytes()
    if kind == "tabulated":
        assert 3.0 in _gamma_arguments(TabulatedHurst([np.nextafter(1.0, 0.0)] * 2), 2)


def test_gamma_over_strided_views_matches_scipy_bitwise():
    # as the covariance build calls it: Gamma written over a block of rows
    # from some column on, with its scratch in strided views of other arrays
    rng = np.random.default_rng(5)
    matrix, scratch = rng.uniform(1.0, 3.0, (2, 300, 500))
    before = matrix.copy()
    block = matrix[100:164, 200:]
    assert _gamma(block, scratch[:64, 200:], scratch[236:, :300][::-1]) is block
    assert block.tobytes() == scipy_gamma(before[100:164, 200:]).tobytes()
    block[...] = before[100:164, 200:]
    assert matrix.tobytes() == before.tobytes()  # nothing outside the block was written


def test_build_cov_matrix_rejects_unordered_times():
    f = HurstFunction.constant(0.5)
    with pytest.raises(ValueError):
        build_cov_matrix(f, np.array([2.0, 1.0]))


def test_constant_kernel_matches_fbm_formula():
    h = 0.7
    f = HurstFunction.constant(h)
    times = np.arange(1.0, 8.0)
    cov = build_cov_matrix(f, times)
    s, t = np.meshgrid(times, times, indexing="ij")
    expected = 0.5 * (t ** (2 * h) + s ** (2 * h) - np.abs(t - s) ** (2 * h))
    np.testing.assert_allclose(cov, expected, atol=1e-12)


def test_fbm_increment_cov_examples():
    assert fbm_increment_cov(0.5, 1.0, 3, 5, 1.0) == 0.0
    assert fbm_increment_cov(0.5, 1.0, 4, 4, 1.0) == 1.0
    assert fbm_increment_cov(0.7, 1.0, 5, 4, 1.0) == pytest.approx(FGN_LAG1_H07, rel=1e-14)


def test_fbm_increment_cov_stationary():
    for i, j in [(0, 3), (5, 8), (10, 13)]:
        assert fbm_increment_cov(0.3, 2.0, i, j, 0.5) == pytest.approx(
            fbm_increment_cov(0.3, 2.0, 100, 103, 0.5), rel=1e-14
        )


def test_fbm_increment_cov_matrix_is_toeplitz():
    m = fbm_increment_cov_matrix(0.6, 1.0, 5)
    for k in range(5):
        diag = np.diagonal(m, k)
        assert np.all(diag == diag[0])
    assert np.array_equal(m, m.T)


def test_cholesky_with_jitter_degenerate():
    # rank-1 PSD matrix: plain factorization fails, jitter saves it
    v = np.array([1.0, 2.0, 3.0])
    factor = cholesky_with_jitter(np.outer(v, v))
    assert factor.shape == (3, 3)


@pytest.mark.parametrize("signed_zero", [False, True])
def test_cholesky_with_jitter_levels_are_cov_plus_jitter_eye(monkeypatch, signed_zero):
    # every level factors bytes identical to cov + jitter * np.eye(n), also where
    # cov holds -0.0; a stub of the in-place factorization that records each
    # matrix and fails tries all levels
    v = np.array([1.0, 2.0, 3.0])
    cov = np.outer(v, v)
    if signed_zero:
        cov[0, 2] = cov[2, 0] = -0.0
    expected = [cov.tobytes()] + [(cov + j * np.eye(3)).tobytes() for j in JITTERS]
    seen = []

    def fail(a):
        seen.append(a.tobytes())
        return False

    monkeypatch.setattr(processes, "_cholesky_in_place", fail)
    with pytest.raises(FactorizationError):
        cholesky_with_jitter(cov)
    assert seen == expected


@pytest.mark.parametrize("n, rank", [(3, 2), (300, 295), (600, 595)])
def test_cholesky_with_jitter_restores_each_level_after_a_failed_factorization(monkeypatch,
                                                                              n, rank):
    # a failed dpotrf leaves partial results in the upper triangle and on the
    # diagonal; each level must still see exactly cov + jitter * np.eye(n),
    # across several row blocks too, and the factor is numpy's of that matrix
    a = np.random.default_rng(n).standard_normal((n, rank)) * (1000 / np.sqrt(n))
    gram = a @ a.T
    cov = np.triu(gram) + np.triu(gram, 1).T  # exactly symmetric, rank-deficient
    expected = [cov.tobytes()] + [(cov + j * np.eye(n)).tobytes() for j in JITTERS]
    seen = []
    real = processes._cholesky_in_place

    def recorded(m):
        seen.append(m.tobytes())
        return real(m)

    monkeypatch.setattr(processes, "_cholesky_in_place", recorded)
    factor = cholesky_with_jitter(cov)
    assert len(seen) >= 2
    assert seen == expected[: len(seen)]
    shifted = np.frombuffer(seen[-1]).reshape(n, n)
    assert factor.tobytes() == np.linalg.cholesky(shifted).tobytes()


def _spd_covariances():
    f = HurstFunction.periodic(0.3, 1.0)
    for n in (2, 255, 256, 257, 300, 2000):
        yield build_cov_matrix(f, np.arange(1, n + 1) / n)
    yield build_cov_matrix(HurstFunction.monotonic(0.3, 1.0), np.arange(1, 2001) / 2000)
    yield fbm_increment_cov_matrix(0.7, 1.0, 500, 0.01)


def _assert_numpy_factors_in_place():
    for cov in _spd_covariances():
        expected = np.linalg.cholesky(cov).tobytes()
        factor = cholesky_with_jitter(cov)
        assert factor is cov
        assert factor.tobytes() == expected


def test_cholesky_with_jitter_spd_is_plain_cholesky():
    # dpotrf on the C-ordered matrix in place gives numpy's factor byte for byte
    _assert_numpy_factors_in_place()


def test_cholesky_without_the_lapack_binding_is_plain_cholesky(monkeypatch):
    monkeypatch.setattr(processes, "_DPOTRF", None)
    _assert_numpy_factors_in_place()


def test_numpy_lapack_is_bound():
    # numpy's wheels ship OpenBLAS; without it each new factor peaks at three
    # n x n arrays
    assert processes._DPOTRF is not None


def test_new_factor_is_the_built_covariance(monkeypatch):
    processes._FACTORS.clear()
    built = []
    real_build = processes.build_cov_matrix

    def recorded_build(f, times):
        built.append(real_build(f, times))
        return built[-1]

    monkeypatch.setattr(processes, "build_cov_matrix", recorded_build)
    f = HurstFunction.periodic(0.3, 1.0)
    sample_path(f, 300, 1.0 / 300, seed=0)
    assert np.shares_memory(processes._FACTORS[("mbm", f, 300, 1.0 / 300)], built[0])


def test_cholesky_with_jitter_rejects_a_matrix_that_is_not_square():
    with pytest.raises(ValueError):
        cholesky_with_jitter(np.ones((3, 2)))


def test_cholesky_with_jitter_indefinite_fails():
    with pytest.raises(FactorizationError):
        cholesky_with_jitter(np.array([[1.0, 0.0], [0.0, -1.0]]))


def test_sample_path_deterministic():
    f = HurstFunction.periodic(0.2, 1.0)
    a = sample_path(f, 20, 0.05, seed=(7, 3))
    b = sample_path(f, 20, 0.05, seed=(7, 3))
    assert np.array_equal(a.values, b.values)
    c = sample_path(f, 20, 0.05, seed=(7, 4))
    assert not np.array_equal(a.values, c.values)


def test_sample_path_validation():
    f = HurstFunction.constant(0.5)
    with pytest.raises(ValueError):
        sample_path(f, 1, 1.0, seed=0)
    with pytest.raises(ValueError):
        sample_path(f, 5, 0.0, seed=0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("delta_t", [0.0, -1.0, float("nan"), float("inf")])
def test_delta_t_must_be_positive_and_finite(delta_t, monkeypatch):
    # sample_path checks delta_t before it builds a factor, so nothing warns
    monkeypatch.setattr(processes, "_mbm_factor", lambda *args: pytest.fail("factor built"))
    message = "^" + re.escape(f"delta_t must be positive and finite, got {delta_t}") + "$"
    with pytest.raises(ValueError, match=message):
        SamplePath("a", np.arange(5.0), delta_t)
    with pytest.raises(ValueError, match=message):
        sample_path(HurstFunction.constant(0.5), 20, delta_t, seed=0)


def test_sample_path_variance_monte_carlo():
    f = HurstFunction.constant(0.5)
    rows = np.array([sample_path(f, 2, 1.0, seed=s).values for s in range(2000)])
    var = rows.var(axis=0)
    assert var[0] == pytest.approx(1.0, rel=0.1)
    assert var[1] == pytest.approx(2.0, rel=0.1)


def test_prefix():
    p = SamplePath("x", np.arange(5.0) + 1.0, delta_t=0.5)
    q = p.prefix(3)
    assert len(q) == 3
    assert q.delta_t == 0.5
    assert np.array_equal(q.values, p.values[:3])


def test_prefix_rejects_lengths_outside_the_path():
    p = SamplePath("x", np.arange(5.0))
    assert len(p.prefix(2)) == 2
    assert p.prefix(5).values.tobytes() == p.values.tobytes()
    for n in (-1, 0, 1, 6):
        with pytest.raises(ValueError, match=r"prefix length must lie in \[2, 5\]"):
            p.prefix(n)


def test_sample_fbm_increments_covariance():
    h, n = 0.7, 3
    rows = np.array([sample_fbm_increments(h, n, 1.0, s) for s in range(4000)])
    emp = np.cov(rows.T, bias=True)
    pop = fbm_increment_cov_matrix(h, 1.0, n)
    np.testing.assert_allclose(emp, pop, atol=0.1)


def test_tangent_process_correlation():
    # Normalized local increments of an mBm around t0 behave like fGn with
    # h = H(t0): scale-free correlation matrices agree within 10% at a fine mesh.
    f = HurstFunction.periodic(0.2, 1.0)
    t0 = 0.35
    delta = 1e-3
    window = 20
    times = t0 + delta * np.arange(1, window + 2)
    cov = build_cov_matrix(f, times)
    inc_cov = cov[1:, 1:] + cov[:-1, :-1] - cov[1:, :-1] - cov[:-1, 1:]
    corr = inc_cov / np.sqrt(np.outer(np.diag(inc_cov), np.diag(inc_cov)))
    pop = fbm_increment_cov_matrix(f(t0), 1.0, window)
    pop_corr = pop / pop[0, 0]
    assert np.max(np.abs(corr - pop_corr)) < 0.1


def _held_bytes():
    return sum(f.nbytes for f in processes._FACTORS.values())


def _record_factorizations(monkeypatch):
    calls = []
    real = processes.cholesky_with_jitter

    def counted(cov):
        calls.append(_held_bytes())
        return real(cov)

    monkeypatch.setattr(processes, "cholesky_with_jitter", counted)
    return calls


def test_factor_caches_are_bounded(monkeypatch):
    # a budget of five n = 6 factors keeps the five most recent of 40
    processes._FACTORS.clear()
    monkeypatch.setattr(processes, "_FACTOR_BYTES", 5 * 8 * 6**2)
    for h in np.linspace(-0.4, 0.4, 20):
        sample_path(HurstFunction.periodic(float(h), 1.0), 6, 1.0 / 6, seed=0)
        sample_fbm_increments(0.5 + float(h), 6, 1.0, 0)
        assert _held_bytes() <= processes._FACTOR_BYTES
    assert len(processes._FACTORS) == 5
    assert list(processes._FACTORS)[-1] == ("fgn", 0.9, 6, 1.0)
    calls = _record_factorizations(monkeypatch)
    sample_fbm_increments(0.9, 6, 1.0, 1)
    sample_path(HurstFunction.periodic(0.4, 1.0), 6, 1.0 / 6, seed=1)
    assert calls == []


def test_factor_eviction_happens_before_the_build(monkeypatch):
    # one n = 6 factor (288 bytes) fits the budget, two do not
    processes._FACTORS.clear()
    monkeypatch.setattr(processes, "_FACTOR_BYTES", 400)
    built = []
    real_build = processes.build_cov_matrix

    def recorded_build(f, times):
        built.append(_held_bytes())
        return real_build(f, times)

    monkeypatch.setattr(processes, "build_cov_matrix", recorded_build)
    factored = _record_factorizations(monkeypatch)
    sample_path(HurstFunction.periodic(0.3, 1.0), 6, 1.0 / 6, seed=0)
    sample_path(HurstFunction.periodic(-0.3, 1.0), 6, 1.0 / 6, seed=0)
    assert built == [0, 0]
    assert factored == [0, 0]
    assert _held_bytes() == 288


def test_failed_covariance_build_has_made_room(monkeypatch):
    # the room for the new factor is made before its build, which then fails
    processes._FACTORS.clear()
    monkeypatch.setattr(processes, "_FACTOR_BYTES", 400)
    sample_path(HurstFunction.periodic(0.3, 1.0), 6, 1.0 / 6, seed=0)

    def fail(f, times):
        raise ValueError("non-finite coupling factor")

    monkeypatch.setattr(processes, "build_cov_matrix", fail)
    with pytest.raises(ValueError):
        sample_path(HurstFunction.periodic(-0.3, 1.0), 6, 1.0 / 6, seed=0)
    assert _held_bytes() == 0


def test_new_profile_holds_one_covariance_when_one_factor_fits(monkeypatch):
    # the budget holds one factor: the second profile's covariance is built
    # after the first factor is evicted, so the peak is one n x n array and
    # the build's workspace, not two n x n arrays
    monkeypatch.setattr(processes, "_usable_cpus", lambda: 1)
    n = 600
    processes._FACTORS.clear()
    monkeypatch.setattr(processes, "_FACTOR_BYTES", 8 * n**2)
    workspace = 8 * 3 * processes._COV_BLOCK * n
    tracemalloc.start()
    try:
        for h in (0.3, -0.3):
            sample_path(HurstFunction.periodic(h, 1.0), n, 1.0 / n, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(processes._FACTORS) == [("mbm", HurstFunction.periodic(-0.3, 1.0), n, 1.0 / n)]
    assert peak <= 8 * n**2 + workspace + 2**20


def test_factor_over_budget_is_built_once(monkeypatch):
    processes._FACTORS.clear()
    monkeypatch.setattr(processes, "_FACTOR_BYTES", 100)
    calls = _record_factorizations(monkeypatch)
    f = HurstFunction.periodic(0.3, 1.0)
    paths = [sample_path(f, 6, 1.0 / 6, seed=s) for s in range(10)]
    assert calls == [0]
    assert _held_bytes() == 288
    assert paths[3].values.tobytes() == sample_path(f, 6, 1.0 / 6, seed=3).values.tobytes()
