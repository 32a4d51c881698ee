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
from covclust.processes import CACHE_SIZE, _GAMMA_CHUNK, _fgn_factor, _gamma, _mbm_factor

from naive_oracles import dense_cov_matrix, fbm_increment_cov, mbm_cov

# Frozen high-precision oracle values (computed independently with an
# arbitrary-precision gamma implementation before the build).
D_FACTOR_03_07 = 0.4261564452817933072
MONO_COV_10_10 = 10.964781961431850131
MONO_COV_10_20 = 11.964636823194221756
MONO_COV_20_20 = 25.416303938318671963
FGN_LAG1_H07 = 0.31950791077289425937  # (2**1.4 - 2) / 2


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


BLOCKED_BUILD_PROFILES = {
    "constant": lambda n: HurstFunction.constant(0.7),
    "monotonic": lambda n: HurstFunction.monotonic(0.3, 1.0),
    "periodic": lambda n: HurstFunction.periodic(-0.3, 1.0),
    "tabulated": lambda n: HurstFunction.tabulated(
        0.5 + 0.4 * np.random.default_rng(n).uniform(-1.0, 1.0, n)
    ),
}


@pytest.mark.parametrize("kind", sorted(BLOCKED_BUILD_PROFILES))
@pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 600])
def test_build_cov_matrix_bitwise_matches_dense(n, kind):
    # sizes straddle the row-block edge; every entry must equal the one-shot formula
    f = BLOCKED_BUILD_PROFILES[kind](n)
    times = np.arange(1, n + 1) / n
    assert build_cov_matrix(f, times).tobytes() == dense_cov_matrix(f, times).tobytes()


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
        HurstFunction.tabulated(np.random.default_rng(n).choice(H_EDGES, n)),
        HurstFunction.tabulated(np.random.default_rng(n).uniform(0.0, 1.0, n).clip(5e-324)),
    ],
}


def test_gamma_matches_scipy_bitwise_random():
    x = np.random.default_rng(11).uniform(1.0, 3.0, 1_200_000)
    assert _gamma(x).tobytes() == scipy_gamma(x).tobytes()
    # at 3 itself the step down changes no bit; above 3 it is what keeps the port exact
    x = np.random.default_rng(12).uniform(3.0, 4.0, 1000)
    assert _gamma(x).tobytes() == scipy_gamma(x).tobytes()


def test_gamma_matches_scipy_bitwise_edges():
    edges = [1.0, 2.0, 3.0]
    edges += [np.nextafter(e, d) for e in edges for d in (0.0, 4.0)]
    x = np.array(edges)
    assert _gamma(x).tobytes() == scipy_gamma(x).tobytes()
    assert _gamma(np.array([1.0, 2.0, 3.0])).tolist() == [1.0, 1.0, 2.0]


@pytest.mark.parametrize("kind", sorted(GAMMA_PROFILES))
def test_gamma_matches_scipy_bitwise_on_hurst_profiles(kind):
    for n in (7, 300):
        for f in GAMMA_PROFILES[kind](n):
            x = _gamma_arguments(f, n)
            assert x.min() >= 1.0 and x.max() <= 3.0
            assert _gamma(x).tobytes() == scipy_gamma(x).tobytes()
    if kind == "tabulated":
        assert 3.0 in _gamma_arguments(HurstFunction.tabulated([np.nextafter(1.0, 0.0)] * 2), 2)


def test_gamma_keeps_shape_and_chunk_edges():
    # sizes straddle the chunk edge; a 2-d block gives the same values as its ravel
    rng = np.random.default_rng(5)
    for size in (1, _GAMMA_CHUNK - 1, _GAMMA_CHUNK, _GAMMA_CHUNK + 1, 2 * _GAMMA_CHUNK + 7):
        x = rng.uniform(1.0, 3.0, size)
        assert _gamma(x).tobytes() == scipy_gamma(x).tobytes()
    block = rng.uniform(1.0, 3.0, (256, 300))
    assert _gamma(block).shape == block.shape
    assert _gamma(block).tobytes() == scipy_gamma(block).tobytes()


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


def test_cholesky_with_jitter_spd_is_plain_cholesky():
    cov = build_cov_matrix(HurstFunction.periodic(0.3, 1.0), np.arange(1, 301) / 300)
    assert cholesky_with_jitter(cov).tobytes() == np.linalg.cholesky(cov).tobytes()


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


def test_sample_path_variance_monte_carlo():
    f = HurstFunction.constant(0.5)
    rows = np.array([sample_path(f, 2, 1.0, seed=s).values for s in range(2000)])
    var = rows.var(axis=0)
    assert var[0] == pytest.approx(1.0, rel=0.1)
    assert var[1] == pytest.approx(2.0, rel=0.1)


def test_prefix_and_time_of():
    p = SamplePath("x", np.arange(5.0) + 1.0, delta_t=0.5)
    assert p.time_of(1) == 0.5
    assert p.time_of(5) == 2.5
    q = p.prefix(3)
    assert len(q) == 3
    assert q.delta_t == 0.5
    assert np.array_equal(q.values, p.values[:3])


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


def test_factor_caches_are_bounded():
    for h in np.linspace(-0.4, 0.4, 20):
        sample_path(HurstFunction.periodic(float(h), 1.0), 6, 1.0 / 6, seed=0)
        sample_fbm_increments(0.5 + float(h), 6, 1.0, 0)
    for cache in (_mbm_factor, _fgn_factor):
        info = cache.cache_info()
        assert info.maxsize == CACHE_SIZE
        assert info.currsize <= CACHE_SIZE
    hits = _mbm_factor.cache_info().hits
    sample_path(HurstFunction.periodic(0.4, 1.0), 6, 1.0 / 6, seed=1)
    assert _mbm_factor.cache_info().hits == hits + 1
