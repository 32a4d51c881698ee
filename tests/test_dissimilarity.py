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
    analytic_d,
    d_hat,
    d_hat_rho_count,
    d_star_hat,
    d_tilde_star,
    default_mn,
    default_weights,
    dissimilarity_matrix,
    empirical_cov,
    increment_path,
    localized_increments,
    log_star,
    rho,
    sample_path,
)
from covclust import dissimilarity
from covclust.dissimilarity import _features, _window_covs

from naive_oracles import (
    fullstorage_dissimilarity_matrix,
    naive_d_hat,
    naive_nu,
    pairwise_dissimilarity_matrix,
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


def test_rho_examples():
    m = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert rho(m, m) == 0.0
    assert rho(np.eye(2), np.zeros((2, 2))) == pytest.approx(math.sqrt(2), rel=1e-14)


def test_rho_brute_force():
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
    assert rho(a, b) == pytest.approx(math.sqrt(((a - b) ** 2).sum()), rel=1e-14)


def test_rho_dimension_mismatch():
    with pytest.raises(ValueError):
        rho(np.eye(2), np.eye(3))


def test_rho_counter():
    counter = OpCounter()
    rho(np.eye(2), np.eye(2), counter=counter)
    rho(np.eye(2), np.eye(2), counter=counter)
    assert counter.rho == 2


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


def test_empirical_cov_example():
    x = IncrementPath([1.0, 2.0, 3.0])
    np.testing.assert_allclose(
        empirical_cov(x, 1, 2), [[2.5, 4.0], [4.0, 6.5]], atol=1e-14
    )


def test_empirical_cov_zero_path():
    x = IncrementPath(np.zeros(6))
    assert np.all(empirical_cov(x, 2, 3) == 0.0)


def test_empirical_cov_boundary_single_window():
    x = IncrementPath([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_allclose(
        empirical_cov(x, 3, 2), np.outer([3.0, 4.0], [3.0, 4.0]), atol=1e-14
    )


def test_empirical_cov_matches_naive():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(10)
    x = IncrementPath(v)
    for l in (1, 2, 5):
        for m in (1, 2, 3):
            np.testing.assert_allclose(
                empirical_cov(x, l, m), naive_nu(v, l, m), rtol=1e-12
            )
    # The single slice it computes is bitwise the matching entries of the whole stack.
    for n in (3, 10, 57, 305):
        v = rng.standard_normal(n)
        x = IncrementPath(v)
        for m in range(1, min(n, 6) + 1):
            planes = _window_covs(v, n, 1, m)
            for l in range(1, n - m + 2):
                upper = empirical_cov(x, l, m)[np.triu_indices(m)]
                assert np.array_equal(planes[:, 0, l - 1], upper)


def test_empirical_cov_rejects_empty_range():
    x = IncrementPath([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        empirical_cov(x, 3, 2)
    with pytest.raises(ValueError):
        empirical_cov(x, 0, 1)


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


def test_localized_increments_example():
    z = SamplePath("z", [0.0, 1.0, 3.0, 6.0])
    np.testing.assert_allclose(localized_increments(z, 1, 1).values, [1.0, 2.0])


def test_localized_increments_full_window():
    z = SamplePath("z", np.arange(8.0) ** 2)
    full = localized_increments(z, 1, len(z) - 2)
    np.testing.assert_allclose(full.values, np.diff(z.values))


def test_localized_increments_linear_path():
    z = SamplePath("z", 3.0 * np.arange(1, 7))
    np.testing.assert_allclose(localized_increments(z, 2, 3).values, np.full(4, 3.0))


def test_localized_increments_overrun():
    z = SamplePath("z", np.arange(5.0))
    with pytest.raises(ValueError):
        localized_increments(z, 2, 4)


def test_d_star_hat_degenerate_equals_d_hat():
    rng = np.random.default_rng(11)
    z1 = SamplePath("a", rng.standard_normal(20))
    z2 = SamplePath("b", rng.standard_normal(20))
    assert d_star_hat(z1, z2) == d_hat(increment_path(z1), increment_path(z2))


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
    assert DissimConfig().windows(12) == (10, 1)


def test_d_star_hat_infeasible_window():
    z = SamplePath("a", np.arange(6.0))
    with pytest.raises(ValueError):
        d_star_hat(z, z, DissimConfig(K=5, L=1))
    with pytest.raises(ValueError):
        d_star_hat(z, z, DissimConfig(K=2, L=4))


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
        naive_d_hat(np.diff(z1.values[i - 1 : i + K + 1]) / z1.delta_t ** H1(z1.time_of(i)),
                    np.diff(z2.values[i - 1 : i + K + 1]) / z2.delta_t ** H2(z2.time_of(i)),
                    use_log_star=use_log_star)
        for i in range(1, L + 1)
    ])
    assert d_tilde_star(z1, z2, H1, H2, cfg) == pytest.approx(expected, rel=1e-12)


def test_d_tilde_star_self_zero():
    H = HurstFunction.constant(0.4)
    z = SamplePath("a", np.random.default_rng(16).standard_normal(9), delta_t=0.25)
    assert d_tilde_star(z, z, H, H) == 0.0


# ---------------------------------------------------------------------------
# analytic dissimilarity
# ---------------------------------------------------------------------------


def test_analytic_d_identical_structures():
    for trunc in (1, 10, 50):
        assert analytic_d(0.3, 0.3, 1.0, 1.0, trunc) == 0.0


def test_analytic_d_symmetric():
    assert analytic_d(0.3, 0.7, 1.0, 2.0) == pytest.approx(
        analytic_d(0.7, 0.3, 2.0, 1.0), rel=1e-14
    )


def test_analytic_d_truncation_tail():
    # the tail past truncation 50 is majorized by the weight tail times the
    # largest per-term Frobenius distance seen up to truncation 100
    d50 = analytic_d(0.3, 0.7, 1.0, 1.0, truncation=50)
    d100 = analytic_d(0.3, 0.7, 1.0, 1.0, truncation=100)
    j = np.arange(51, 101)
    per_term = []
    from covclust import fbm_increment_cov_matrix

    for m in (99, 100):
        c1 = fbm_increment_cov_matrix(0.3, 1.0, m)
        c2 = fbm_increment_cov_matrix(0.7, 1.0, m)
        per_term.append(rho(c1, c2))
    tail_bound = float(np.sum(default_weights(j))) * max(per_term) * (
        float(np.sum(default_weights(np.arange(1, 101)))) + 1.0
    )
    assert 0 < d100 - d50 < tail_bound


def test_analytic_d_nonnegative_and_positive_for_distinct():
    assert analytic_d(0.3, 0.7, 1.0, 1.0) > 0.0


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
    L = int(rng.integers(1, n_min - (n_min - 2 if K is None else K))) if set_L else None
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
