import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covclust import (
    DissimConfig,
    HurstFunction,
    IncrementPath,
    OpCounter,
    SamplePath,
    d_hat,
    d_hat_rho_count,
    d_star_hat,
    d_tilde_star,
    default_mn,
    default_weights,
    dissimilarity_matrix,
    log_star,
    sample_path,
)
from covclust import dissimilarity
from covclust.dissimilarity import InfeasibleError, _features, _lag_means, _window_scales

from naive_oracles import (
    fullstorage_dissimilarity_matrix,
    masked_log_star,
    naive_d_hat,
    naive_hurst,
    naive_nu,
    pairwise_dissimilarity_matrix,
    rowzero_d_star_hat,
    rowzero_dissimilarity_matrix,
    rowzero_pair,
    rowzero_window_covs,
)


def rng_increments(seed, n):
    return IncrementPath(np.random.default_rng(seed).standard_normal(n))


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def test_log_star_cases():
    assert log_star(1.0) == 0.0
    assert log_star(0.0) == 0.0
    assert log_star(-math.e) == pytest.approx(-1.0, abs=1e-14)
    assert log_star(math.e) == pytest.approx(1.0, abs=1e-14)


def test_log_star_array():
    out = log_star(np.array([[1.0, 0.0], [-1.0, math.e]]))
    np.testing.assert_allclose(out, [[0.0, 0.0], [0.0, 1.0]], atol=1e-14)


def test_log_star_odd_symmetry():
    for x in (0.5, 2.0, 17.3):
        assert log_star(-x) == -log_star(x)


def test_log_star_negative_zero_is_positive_zero():
    assert not np.signbit(log_star(-0.0))
    assert not np.any(np.signbit(log_star(np.array([-0.0, 0.0]))))


def test_log_star_bitwise_matches_masked_oracle():
    tiny = np.nextafter(0.0, 1.0)
    special = [0.0, -0.0, tiny, -tiny, 2.2e-308, -2.2e-308, 1.0, -1.0, 1e308, -1e308,
               np.inf, -np.inf, math.e, -math.e]
    rng = np.random.default_rng(3)
    random = rng.standard_normal(4099) * np.exp(rng.uniform(-700.0, 700.0, 4099))
    for values in (special, random, np.concatenate([random[:1000], special, random[1000:]])):
        x = np.array(values)
        assert log_star(x).tobytes() == masked_log_star(x).tobytes()
        assert log_star(list(values)).tobytes() == masked_log_star(x).tobytes()
        aliased = x.copy()
        assert log_star(aliased, out=aliased) is aliased
        assert aliased.tobytes() == masked_log_star(x).tobytes()
    for v in special:
        got = log_star(v)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(masked_log_star(v)).tobytes()


def test_log_star_variance_planes_take_plain_log_bitwise():
    # lag 0 skips log*'s sign passes; every lag array must still equal log* of the
    # raw suffix means, zeros (a constant path, half-zero steps) giving +0.0
    rng = np.random.default_rng(31)
    x = rng.standard_normal((4, 60)) * np.array([[1.0], [1e-3], [1e3], [1.0]])
    x[1] = 0.0
    x[3, ::2] = 0.0
    scales = rng.uniform(0.01, 2.0, (4, 20))
    for n_w, L, s in ((12, 20, None), (40, 20, scales), (30, 1, None)):
        m_n = default_mn(n_w)
        got = _features(x, n_w, L, DissimConfig(use_log_star=True), s)
        raw = _lag_means(x, n_w, L, m_n)
        if s is not None:  # shared row i + s, divided by window s's squared scale, at i*L + s
            raw = [np.concatenate([a[:, i : i + L] for i in range(m_n - c)], axis=1)
                   / np.tile(s * s, m_n - c)[..., None] for c, a in enumerate(raw)]
        assert len(got) == len(raw) == m_n
        for c, (f, r) in enumerate(zip(got, raw)):
            assert np.any(r < 0) == (c > 0)
            expected = log_star(r) if c == 0 else log_star(r) * math.sqrt(2.0)
            assert f.tobytes() == expected.tobytes()
        assert np.all(got[0][1] == 0.0) and not np.any(np.signbit(got[0][1]))


def test_shared_rows_serve_window_local_lag_means_bitwise():
    # d_tilde_star gathers row i + s of the shared lag arrays as row i of window s;
    # lag means built from window s alone equal it on every entry _mean_d_hat reads
    # (row i, column k >= m_n - 1 - c - i), and differ only where they sum padding zeros
    rng = np.random.default_rng(33)
    for n_w, L in ((2, 1), (3, 4), (8, 1), (12, 7), (21, 5), (60, 9), (150, 3)):
        x = rng.standard_normal((2, n_w + L - 1)) * np.array([[1.0], [1e5]])
        m_n = default_mn(n_w)
        shared = _lag_means(x, n_w, L, m_n)
        for s in range(L):
            local = _lag_means(x[:, s : s + n_w], n_w, 1, m_n)
            for c, (a, b) in enumerate(zip(shared, local)):
                rows = a[:, s : s + m_n - c]
                assert rows.shape == b.shape
                read = np.add.outer(np.arange(m_n - c), np.arange(n_w - c)) >= m_n - 1 - c
                assert rows[:, read].tobytes() == b[:, read].tobytes()


def test_dissimilarity_matrix_abs_is_root_of_square_bitwise():
    # the m = 1 term is |b - a| in place of sqrt((b - a)**2): equal wherever the
    # square is a normal double, 2**-511 <= |d| < 2**512
    rng = np.random.default_rng(32)
    d = rng.uniform(1.0, 2.0, 200_000) * np.exp2(rng.integers(-511, 512, 200_000).astype(float))
    lo, hi = np.exp2(-511.0), np.nextafter(np.exp2(512.0), 0.0)
    edges = [lo, np.nextafter(lo, 0.0), np.nextafter(lo, 1.0), hi, np.nextafter(hi, 0.0)]
    d = np.concatenate([d, edges, rng.standard_normal(10_000), [0.0]])
    for v in (d, -d):
        assert np.abs(v).tobytes() == np.sqrt(v * v).tobytes()
    # outside it the square under- or overflows, and |d| is the exact value
    with np.errstate(over="ignore"):
        assert np.sqrt(np.float64(1e-160) ** 2) != 1e-160 and np.isinf(np.sqrt(np.exp2(512.0) ** 2))


def test_default_weights_positive_and_summable():
    j = np.arange(1, 2000)
    w = default_weights(j)
    assert np.all(w > 0)
    # telescoping partial sums are bounded by 1/4 + 1/36 + ... < 0.29
    assert w.sum() < 0.29


def test_default_mn():
    assert default_mn(8) == 2
    assert default_mn(2) == 1  # clamped up from floor(ln 2) = 0
    assert default_mn(305) == 5
    assert default_mn(1600) == 7


# ---------------------------------------------------------------------------
# empirical covariance
# ---------------------------------------------------------------------------


def row0(x, n_w, L, m, m_n=None):
    """Row 0 of nu(l, m) of each window, shape (m, L, n_w-m+1), read from the lag arrays."""
    m_n = m if m_n is None else m_n
    lags = _lag_means(x, n_w, L, m_n)
    return np.stack([lags[c][m_n - m : m_n - m + L, m - 1 - c : n_w - c] for c in range(m)])


def test_empirical_cov_example():
    # row 0 of nu(1, 2) of x = (1, 2, 3): the mean of (1, 2)(1, 2)^T and (2, 3)(2, 3)^T is
    # [[2.5, 4.0], [4.0, 6.5]]
    planes = row0(np.array([1.0, 2.0, 3.0]), 3, 1, 2)
    assert planes.shape == (2, 1, 2)
    np.testing.assert_allclose(planes[:, 0, 0], [2.5, 4.0], atol=1e-14)


def test_empirical_cov_zero_path():
    assert all(np.all(a == 0.0) for a in _lag_means(np.zeros(6), 6, 1, 3))


def test_empirical_cov_boundary_single_window():
    # the last start l = n - m + 1 averages a single outer product, (3, 4)(3, 4)^T
    planes = row0(np.array([1.0, 2.0, 3.0, 4.0]), 4, 1, 2)
    np.testing.assert_allclose(planes[:, 0, -1], [9.0, 12.0], atol=1e-14)


def test_empirical_cov_matches_naive():
    rng = np.random.default_rng(0)
    for n in (3, 10, 57, 305):
        v = rng.standard_normal(n)
        for m in range(1, min(n, 6) + 1):
            planes = row0(v, n, 1, m, min(n, 6))
            for l in range(1, n - m + 2):
                naive = naive_nu(v, l, m)[0, :m]
                np.testing.assert_allclose(planes[:, 0, l - 1], naive, rtol=1e-12)


def test_empirical_cov_shift_identity_bitwise():
    # entry (r, r + c) of nu(l, m), rebuilt from its own products x[t + r] x[t + r + c],
    # is plane c of the size m - r row 0 from start l + r on, byte for byte
    rng = np.random.default_rng(1)
    for n in (6, 23, 101):
        x = rng.standard_normal(n)
        for m in range(1, 7):
            n_l = n - m + 1
            for r in range(m):
                shifted = row0(x, n, 1, m - r, 6)[:, 0, r:]
                for c in range(m - r):
                    products = x[r : r + n_l] * x[r + c : r + c + n_l]
                    entry = np.cumsum(products[::-1])[::-1] / np.arange(n_l, 0, -1, dtype=float)
                    assert shifted[c].tobytes() == entry.tobytes()


def test_window_covs_cross_size_identity_bitwise():
    # plane c of size m + 1 at window s + 1 is plane c of size m at window s from
    # start l + 1: the same end, the same products, the same count, the same order.
    # So one array per lag serves every size, and equals the per-size planes
    rng = np.random.default_rng(2)
    for n_w, L in ((6, 1), (6, 9), (23, 5), (60, 14)):
        x = rng.standard_normal((2, n_w + L - 1)) * np.array([[1.0], [1e4]])
        m_n = min(n_w, 5)
        for m in range(1, m_n):
            small, large = rowzero_window_covs(x, n_w, L, m), rowzero_window_covs(x, n_w, L, m + 1)
            assert large[..., :m, 1:, :].tobytes() == small[..., :, :-1, 1:].tobytes()
        lags = _lag_means(x, n_w, L, m_n)
        assert [a.shape for a in lags] == [(2, L + m_n - 1 - c, n_w - c) for c in range(m_n)]
        for m in range(1, m_n + 1):
            planes = np.stack([a[:, m_n - m : m_n - m + L, m - 1 - c : n_w - c]
                               for c, a in enumerate(lags[:m])], axis=1)
            assert planes.tobytes() == rowzero_window_covs(x, n_w, L, m).tobytes()


# ---------------------------------------------------------------------------
# d_hat
# ---------------------------------------------------------------------------


def test_d_hat_of_identical_paths_is_zero():
    x = rng_increments(1, 30)
    assert d_hat(x, x) == 0.0
    assert d_hat(x, x, DissimConfig(use_log_star=True)) == 0.0


def test_d_hat_symmetric():
    a, b = rng_increments(2, 25), rng_increments(3, 25)
    assert d_hat(a, b) == d_hat(b, a)


def test_d_hat_matches_naive_oracle():
    rng = np.random.default_rng(42)
    for trial in range(20):
        n1, n2 = rng.integers(4, 13, size=2)
        v1, v2 = rng.standard_normal(int(n1)), rng.standard_normal(int(n2))
        for ls in (False, True):
            fast = d_hat(IncrementPath(v1), IncrementPath(v2), DissimConfig(use_log_star=ls))
            slow = naive_d_hat(v1, v2, use_log_star=ls)
            assert fast == pytest.approx(slow, rel=1e-12)


def test_d_hat_uses_shorter_length():
    a, b = rng_increments(4, 10), rng_increments(5, 40)
    assert d_hat(a, b) == pytest.approx(
        naive_d_hat(a.values, b.values[:10]), rel=1e-12
    )


def test_d_hat_rho_count_closed_form():
    for n in (2, 8, 100, 305):
        counter = OpCounter()
        d_hat(rng_increments(6, n), rng_increments(7, n), counter=counter)
        m_n = default_mn(n)
        assert counter.rho == d_hat_rho_count(n, DissimConfig())
        assert counter.rho == sum(n - m + 1 for m in range(1, m_n + 1))


# ---------------------------------------------------------------------------
# localized / normalized variants
# ---------------------------------------------------------------------------


def test_d_star_hat_degenerate_equals_d_hat():
    rng = np.random.default_rng(11)
    z1 = SamplePath("a", rng.standard_normal(20))
    z2 = SamplePath("b", rng.standard_normal(20))
    cfg = DissimConfig(K=18, L=1)  # one window spanning all n - 1 increments
    assert d_star_hat(z1, z2, cfg) == d_hat(IncrementPath(np.diff(z1.values)),
                                              IncrementPath(np.diff(z2.values)))


def test_d_star_hat_self_zero():
    z = SamplePath("a", np.random.default_rng(12).standard_normal(15))
    assert d_star_hat(z, z) == 0.0


def test_d_star_hat_window_average():
    rng = np.random.default_rng(13)
    z1 = SamplePath("a", rng.standard_normal(8))
    z2 = SamplePath("b", rng.standard_normal(8))
    cfg = DissimConfig(K=3, L=2)
    expected = 0.5 * sum(
        naive_d_hat(np.diff(z1.values[i - 1 : i + 4]), np.diff(z2.values[i - 1 : i + 4]))
        for i in (1, 2)
    )
    assert d_star_hat(z1, z2, cfg) == pytest.approx(expected, rel=1e-12)


def test_d_star_hat_matches_naive_at_realistic_size():
    # n=305 mBm paths, K=17, all 287 windows, log* on: the kernel's summed
    # outer products must not lose precision at the experiment's sizes
    n, K = 305, 17
    L = n - K - 1
    z1 = sample_path(HurstFunction.monotonic(-0.4, 1.0), n, 1.0 / n, seed=(31, 0))
    z2 = sample_path(HurstFunction.monotonic(0.4, 1.0), n, 1.0 / n, seed=(31, 1))
    expected = np.mean([
        naive_d_hat(np.diff(z1.values[i - 1 : i + K + 1]),
                    np.diff(z2.values[i - 1 : i + K + 1]), use_log_star=True)
        for i in range(1, L + 1)
    ])
    got = d_star_hat(z1, z2, DissimConfig(K=K, L=L, use_log_star=True))
    assert got == pytest.approx(expected, rel=1e-12)


def test_d_star_hat_all_windows_default():
    rng = np.random.default_rng(17)
    z1 = SamplePath("a", rng.standard_normal(12))
    z2 = SamplePath("b", rng.standard_normal(12))
    assert d_star_hat(z1, z2, DissimConfig(K=4)) == d_star_hat(z1, z2, DissimConfig(K=4, L=7))
    for n in range(3, 401):
        K = math.isqrt(n)
        assert DissimConfig().windows(n) == (K, n - K - 1)
    with pytest.raises(ValueError):
        DissimConfig().windows(2)


def test_d_star_hat_infeasible_window():
    z = SamplePath("a", np.arange(6.0))
    with pytest.raises(ValueError):
        d_star_hat(z, z, DissimConfig(K=5, L=1))
    with pytest.raises(ValueError):
        d_star_hat(z, z, DissimConfig(K=2, L=4))


@pytest.mark.parametrize("cfg", [DissimConfig(), DissimConfig(K=3), DissimConfig(K=2, L=4),
                                 DissimConfig(use_log_star=True)])
def test_d_star_hat_is_an_entry_of_the_matrix(cfg):
    rng = np.random.default_rng(19)
    for n1, n2 in ((14, 14), (20, 11), (11, 20)):
        z1, z2 = SamplePath("a", rng.standard_normal(n1)), SamplePath("b", rng.standard_normal(n2))
        c1, c2 = OpCounter(), OpCounter()
        D = dissimilarity_matrix([z1, z2], cfg, c1)
        assert _bytes(d_star_hat(z1, z2, cfg, c2)) == _bytes(D[0, 1])
        assert c1.rho == c2.rho > 0


@pytest.mark.parametrize("key", ["K", "L"])
@pytest.mark.parametrize("value", [0, -3])
def test_dissim_config_rejects_windows_below_one(key, value):
    with pytest.raises(ValueError, match=rf"^{key} must be at least 1, got {value}$"):
        DissimConfig(**{key: value})


def test_window_length_leaving_no_window_names_the_length():
    for cfg, n_min in ((DissimConfig(K=50), 40), (DissimConfig(K=5, L=1), 6),
                       (DissimConfig(), 2)):
        K = cfg.K or 1
        with pytest.raises(ValueError,
                           match=rf"^window length K={K} infeasible for paths of length {n_min}$"):
            cfg.windows(n_min)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("use_log_star", [False, True])
def test_infeasible_requests_raise_the_typed_error(use_log_star):
    # windows that do not fit, fewer than 2 paths and finite values whose
    # squared increments overflow are faults of the data, and none of them warns
    cfg = DissimConfig(use_log_star=use_log_star)
    rng = np.random.default_rng(33)
    huge = [SamplePath(f"p{i}", 1e200 * rng.standard_normal(12)) for i in range(3)]
    half = [SamplePath(p.id, p.values, delta_t=0.5) for p in huge]
    H = HurstFunction.constant(0.5)
    overflow = "^dissimilarity matrix contains non-finite entries: the squared increments overflow$"
    for call, message in (
        (lambda: DissimConfig(K=50).windows(40), "^window length K=50 infeasible"),
        (lambda: DissimConfig(K=2, L=40).windows(40), "^window count L=40 infeasible"),
        (lambda: dissimilarity_matrix(huge[:1], cfg), "^need at least 2 paths$"),
        (lambda: dissimilarity_matrix(huge, cfg), overflow),
        (lambda: d_hat(*(IncrementPath(np.diff(p.values)) for p in half[:2]), cfg), overflow),
        (lambda: d_tilde_star(half[0], half[1], H, H, cfg), overflow),
    ):
        with pytest.raises(InfeasibleError, match=message):
            call()


@pytest.mark.parametrize("values, message", [
    ([], r"^increment path values must be 1-D and nonempty, got shape \(0,\)$"),
    ([[1.0, 2.0], [3.0, 4.0]], r"^increment path values must be 1-D and nonempty, got shape \(2, 2\)$"),
    ([math.nan, 1.0], "^increment path values must be finite$"),
    ([1.0, math.inf], "^increment path values must be finite$"),
])
def test_increment_path_rejects_bad_values(values, message):
    with pytest.raises(ValueError, match=message):
        IncrementPath(values)


def test_d_hat_of_nan_input_fails_at_construction_not_as_overflow():
    with pytest.raises(ValueError, match="^increment path values must be finite$") as exc:
        d_hat(IncrementPath([math.nan, 1, 2, 3]), IncrementPath([1.0, 2, 3, 4]))
    assert not isinstance(exc.value, InfeasibleError)


def test_d_tilde_star_unit_mesh_bitwise_identity():
    rng = np.random.default_rng(14)
    H = HurstFunction.constant(0.6)
    for _ in range(50):
        z1 = SamplePath("a", rng.standard_normal(12), delta_t=1.0)
        z2 = SamplePath("b", rng.standard_normal(12), delta_t=1.0)
        assert d_tilde_star(z1, z2, H, H) == d_star_hat(z1, z2)


def test_d_tilde_star_scaling_oracle():
    rng = np.random.default_rng(15)
    H = HurstFunction.constant(0.5)
    z1 = SamplePath("a", rng.standard_normal(5), delta_t=0.5)
    z2 = SamplePath("b", rng.standard_normal(5), delta_t=0.5)
    cfg = DissimConfig(K=2, L=1)
    scale = 0.5 ** 0.5
    expected = naive_d_hat(np.diff(z1.values[:4]) / scale, np.diff(z2.values[:4]) / scale)
    assert d_tilde_star(z1, z2, H, H, cfg) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("use_log_star", [False, True])
def test_d_tilde_star_per_window_scales(use_log_star):
    # L > 1 windows, each with its own scale delta_t ** H(t_i) under a monotonic H
    n, K, L = 24, 8, 9
    H1 = HurstFunction.monotonic(-0.3, 1.0)
    H2 = HurstFunction.monotonic(0.3, 1.0)
    z1 = sample_path(H1, n, 1.0 / n, seed=(18, 0))
    z2 = sample_path(H2, n, 1.0 / n, seed=(18, 1))
    cfg = DissimConfig(K=K, L=L, use_log_star=use_log_star)
    expected = np.mean([
        naive_d_hat(np.diff(z1.values[i - 1 : i + K + 1]) / z1.delta_t ** H1(i * z1.delta_t),
                    np.diff(z2.values[i - 1 : i + K + 1]) / z2.delta_t ** H2(i * z2.delta_t),
                    use_log_star=use_log_star)
        for i in range(1, L + 1)
    ])
    assert d_tilde_star(z1, z2, H1, H2, cfg) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("make", [HurstFunction.monotonic, HurstFunction.periodic])
@pytest.mark.parametrize("n, delta_t", [(24, 1.0 / 24), (305, 1.0 / 305), (2000, 0.0005)])
def test_window_scales_bitwise_match_scalar_powers(make, n, delta_t):
    z = SamplePath("a", np.zeros(n), delta_t=delta_t)
    for h in (-0.45, -0.2, 0.1, 0.37):
        H = make(h, 1.0)
        for L in (1, n // 3, n):
            expected = np.array([z.delta_t ** naive_hurst(H, i * z.delta_t) for i in range(1, L + 1)])
            assert _window_scales(z, H, L).tobytes() == expected.tobytes()


def test_d_tilde_star_self_zero():
    H = HurstFunction.constant(0.4)
    z = SamplePath("a", np.random.default_rng(16).standard_normal(9), delta_t=0.25)
    assert d_tilde_star(z, z, H, H) == 0.0


# ---------------------------------------------------------------------------
# matrix assembly
# ---------------------------------------------------------------------------


def _random_paths(seed, count, n):
    rng = np.random.default_rng(seed)
    return [SamplePath(f"p{i}", rng.standard_normal(n)) for i in range(count)]


def test_dissimilarity_matrix_definitional():
    paths = _random_paths(21, 3, 12)
    D = dissimilarity_matrix(paths)
    for i in range(3):
        assert D[i, i] == 0.0
        for j in range(i + 1, 3):
            assert D[i, j] == d_star_hat(paths[i], paths[j])
            assert D[i, j] == D[j, i]


def test_dissimilarity_matrix_duplicates():
    p = _random_paths(22, 1, 10)[0]
    D = dissimilarity_matrix([p, p, p])
    assert np.all(D == 0.0)


def test_dissimilarity_matrix_raises_for_first_infeasible_pair():
    # pair (0, 1) is infeasible first in row-major order, though path 2 is shorter
    rng = np.random.default_rng(27)
    paths = [SamplePath(f"p{i}", rng.standard_normal(n)) for i, n in enumerate((5, 20, 4))]
    counter = OpCounter()
    with pytest.raises(ValueError, match=r"^window length K=4 infeasible for paths of length 5$"):
        dissimilarity_matrix(paths, DissimConfig(K=4), counter=counter)
    assert counter.rho == 0
    # pairs (0, 2) and (0, 3) are both infeasible; (0, 2) comes first, so the
    # error names its length 5, not the shortest path's 4
    paths = [SamplePath(f"p{i}", rng.standard_normal(n)) for i, n in enumerate((20, 30, 5, 4))]
    with pytest.raises(ValueError, match=r"^window length K=4 infeasible for paths of length 5$"):
        dissimilarity_matrix(paths, DissimConfig(K=4), counter=counter)
    assert counter.rho == 0


@pytest.mark.parametrize("cfg", [DissimConfig(), DissimConfig(K=4), DissimConfig(K=3, L=5)])
def test_dissimilarity_matrix_counter_exact_on_ragged_paths(cfg):
    rng = np.random.default_rng(24)
    paths = [SamplePath(f"p{i}", rng.standard_normal(n)) for i, n in enumerate((16, 23, 11, 30))]
    counter = OpCounter()
    dissimilarity_matrix(paths, cfg, counter=counter)
    expected = 0
    for i in range(len(paths)):
        for j in range(i + 1, len(paths)):
            K, L = cfg.windows(min(len(paths[i]), len(paths[j])))
            expected += L * d_hat_rho_count(K + 1, cfg)
    assert counter.rho == expected


def _oracle_case(seed, lengths, set_K, set_L, use_log_star, duplicate, flat, scale=1.0):
    rng = np.random.default_rng(seed)
    paths = [SamplePath(f"p{i}", scale * rng.standard_normal(n)) for i, n in enumerate(lengths)]
    if flat:
        # every increment of the first path is exactly zero, half of the second's
        paths[0] = SamplePath("flat", np.full(lengths[0], 1.5 * scale))
        steps = scale * rng.standard_normal(lengths[1])
        paths[1] = SamplePath("steps", np.repeat(steps, 2)[: lengths[1]])
    if duplicate:
        paths.insert(1, paths[-1])
    n_min = min(lengths)
    K = int(rng.integers(1, n_min - 1)) if set_K else None
    L = int(rng.integers(1, DissimConfig(K=K).windows(n_min)[1] + 1)) if set_L else None
    return paths, DissimConfig(K=K, L=L, use_log_star=use_log_star)


_ORACLE_CASES = st.tuples(st.integers(0, 10_000),
                          st.lists(st.integers(5, 30), min_size=2, max_size=6),
                          st.booleans(), st.booleans(), st.booleans(), st.booleans(), st.booleans())


@settings(max_examples=80, deadline=None)
@given(_ORACLE_CASES)
def test_dissimilarity_matrix_bitwise_matches_pairwise_oracle(case):
    paths, cfg = _oracle_case(*case)
    D = dissimilarity_matrix(paths, cfg)
    assert D.tobytes() == pairwise_dissimilarity_matrix(paths, cfg).tobytes()


@pytest.mark.parametrize("use_log_star", [False, True])
@pytest.mark.parametrize("n, K", [(80, 60), (200, 160)])
def test_dissimilarity_matrix_bitwise_matches_pairwise_oracle_large_windows(n, K, use_log_star):
    # m_n = 4 and 5, beyond the window sizes the hypothesis cases reach
    assert default_mn(K + 1) == {60: 4, 160: 5}[K]
    paths, _ = _oracle_case(26, (n, n, n - 3, n), False, False, use_log_star, True, True)
    cfg = DissimConfig(K=K, use_log_star=use_log_star)
    D = dissimilarity_matrix(paths, cfg)
    assert D.tobytes() == pairwise_dissimilarity_matrix(paths, cfg).tobytes()


@settings(max_examples=80, deadline=None)
@given(_ORACLE_CASES, st.sampled_from([1e-6, 1.0, 1e6]))
def test_dissimilarity_matrix_matches_fullstorage_oracle(case, scale):
    # storing each nu entry once, off-diagonals times sqrt(2), changes D by rounding only
    paths, cfg = _oracle_case(*case, scale=scale)
    D = dissimilarity_matrix(paths, cfg)
    full = fullstorage_dissimilarity_matrix(paths, cfg)
    np.testing.assert_allclose(D, full, rtol=1e-13, atol=0)
    assert np.array_equal(D == 0.0, full == 0.0)


@pytest.mark.parametrize("lengths", [(20,) * 12, (20, 12, 20, 14, 20, 12, 18, 20, 16, 20)])
def test_dissimilarity_matrix_tile_invariant(monkeypatch, lengths):
    rng = np.random.default_rng(25)
    paths = [SamplePath(f"p{i}", rng.standard_normal(n)) for i, n in enumerate(lengths)]
    cfg = DissimConfig(K=4, use_log_star=True)
    per_path = sum(f[0].nbytes for f in _features(np.zeros((1, 20)), 5, 15, cfg))
    assert dissimilarity._TILE_BYTES // per_path >= len(paths)
    D = dissimilarity_matrix(paths, cfg)
    monkeypatch.setattr(dissimilarity, "_TILE_BYTES", 1)
    assert dissimilarity_matrix(paths, cfg).tobytes() == D.tobytes()


def _bytes(value):
    return np.float64(value).tobytes()


@settings(max_examples=80, deadline=None)
@given(_ORACLE_CASES, st.sampled_from([False, True]))
def test_every_measure_bitwise_matches_rowzero_oracle(case, periodic):
    # the lag arrays, shared across window sizes, change no bit of any measure;
    # d_tilde_star's per-window scales (delta_t != 1) share nothing across windows
    paths, cfg = _oracle_case(*case)
    D = dissimilarity_matrix(paths, cfg)
    assert D.tobytes() == rowzero_dissimilarity_matrix(paths, cfg).tobytes()
    H1 = HurstFunction.periodic(0.3, 1.0) if periodic else HurstFunction.monotonic(-0.3, 1.0)
    H2 = HurstFunction.monotonic(0.2, 1.0)
    for i, j in ((0, len(paths) - 1), (1, len(paths) - 1)):
        z1, z2 = paths[i], paths[j]
        assert _bytes(d_star_hat(z1, z2, cfg)) == _bytes(rowzero_d_star_hat(z1, z2, cfg))
        x1, x2 = np.diff(z1.values), np.diff(z2.values)
        n = min(x1.size, x2.size)
        assert _bytes(d_hat(IncrementPath(x1), IncrementPath(x2), cfg)) == _bytes(
            rowzero_pair(x1, x2, n, 1, cfg))
        t1 = SamplePath("a", z1.values, delta_t=1.0 / len(z1))
        t2 = SamplePath("b", z2.values, delta_t=1.0 / len(z2))
        _, L = cfg.windows(min(len(t1), len(t2)))
        scales = (_window_scales(t1, H1, L), _window_scales(t2, H2, L))
        assert _bytes(d_tilde_star(t1, t2, H1, H2, cfg)) == _bytes(
            rowzero_d_star_hat(t1, t2, cfg, scales))


@pytest.mark.parametrize("n, K, most", [(305, 17, 81_000), (2000, 44, 2_100_000)])
def test_feature_bytes_per_path(n, K, most):
    # the experiment's longest paths (m_n = 2) and the CI memory check's (m_n = 3):
    # one array per lag holds every window size's planes
    cfg = DissimConfig(use_log_star=True)
    K_, L = cfg.windows(n)
    assert K_ == K
    per_path = sum(f[0].nbytes for f in _features(np.zeros((1, n - 1)), K + 1, L, cfg))
    assert per_path <= most


# ---------------------------------------------------------------------------
# metric properties
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_d_hat_triangle_inequality(seed, use_log_star):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 30))
    a, b, c = (IncrementPath(rng.standard_normal(n)) for _ in range(3))
    cfg = DissimConfig(use_log_star=use_log_star)
    assert d_hat(a, c, cfg) <= d_hat(a, b, cfg) + d_hat(b, c, cfg) + 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_d_star_hat_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 25))
    a, b, c = (SamplePath(s, rng.standard_normal(n)) for s in "abc")
    assert d_star_hat(a, c) <= d_star_hat(a, b) + d_star_hat(b, c) + 1e-9
