import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covclust import Clustering, offline_cluster

from naive_oracles import memberwise_offline_cluster


def dist_matrix(points):
    points = np.asarray(points, dtype=float)
    return np.abs(points[:, None] - points[None, :])


def planted_matrix(rng, labels, intra_max, inter_min):
    """A random symmetric matrix with max intra < min inter for the partition."""
    n = len(labels)
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if labels[i] == labels[j]:
                D[i, j] = D[j, i] = rng.uniform(0.0, intra_max)
            else:
                D[i, j] = D[j, i] = rng.uniform(inter_min, 2 * inter_min)
    return D


def brute_force_best_separated(D, labels):
    """Planted-partition recovery oracle: the partition itself."""
    parts = {}
    for i, lab in enumerate(labels):
        parts.setdefault(lab, set()).add(i)
    return frozenset(frozenset(p) for p in parts.values())


def test_line_example():
    D = dist_matrix([0.0, 1.0, 10.0, 11.0])
    c = offline_cluster(D, 2)
    assert c.as_partition() == frozenset({frozenset({0, 1}), frozenset({2, 3})})
    # the farthest pair is (0, 11); both become centers
    assert set(c.centers) == {0, 3}


def test_duplicate_groups():
    D = np.array(
        [
            [0.0, 0.0, 1.0, 1.0],
            [0.0, 0.0, 1.0, 1.0],
            [1.0, 1.0, 0.0, 0.0],
            [1.0, 1.0, 0.0, 0.0],
        ]
    )
    c = offline_cluster(D, 2)
    assert c.as_partition() == frozenset({frozenset({0, 1}), frozenset({2, 3})})


def test_kappa_equals_n():
    D = dist_matrix([0.0, 3.0, 7.0, 20.0])
    c = offline_cluster(D, 4)
    assert sorted(c.centers) == [0, 1, 2, 3]
    assert len(set(c.labels.tolist())) == 4


def test_kappa_one():
    D = dist_matrix([0.0, 5.0, 9.0])
    c = offline_cluster(D, 1)
    assert np.all(c.labels == 0)
    assert c.centers == (0,)


def test_each_center_in_own_cluster():
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 10, size=9)
    c = offline_cluster(dist_matrix(pts), 3)
    for k, center in enumerate(c.centers):
        assert c.labels[center] == k


def test_validation_errors():
    with pytest.raises(ValueError):
        offline_cluster(np.zeros((2, 3)), 1)
    with pytest.raises(ValueError):
        offline_cluster(np.array([[0.0, 1.0], [2.0, 0.0]]), 1)  # asymmetric
    with pytest.raises(ValueError):
        offline_cluster(np.array([[0.0, np.inf], [np.inf, 0.0]]), 1)
    with pytest.raises(ValueError):
        offline_cluster(np.array([[1.0, 0.0], [0.0, 0.0]]), 1)  # nonzero diagonal
    with pytest.raises(ValueError):
        offline_cluster(dist_matrix([0.0, 1.0]), 3)  # kappa > N


@pytest.mark.parametrize("D, message", [
    ([[0.0, np.nan], [2.0, 0.0]], "contains non-finite entries"),
    ([[0.0, np.inf], [1.0, 0.0]], "contains non-finite entries"),
    ([[np.nan, 1.0], [2.0, 1.0]], "contains non-finite entries"),
    ([[1.0, 1.0], [2.0, 0.0]], "must be symmetric"),
    ([[0.0, 1.0, np.nan], [1.0, 0.0, 2.0]], "must be square"),
])
def test_validation_reports_the_first_failing_check(D, message):
    # checks run in the order shape, finiteness, symmetry, zero diagonal
    with pytest.raises(ValueError, match=message):
        offline_cluster(np.array(D), 1)


def test_lowest_index_tie_break():
    # three equidistant points: the farthest pair must be the first in
    # upper-triangle scan order, i.e. (0, 1)
    D = np.ones((3, 3)) - np.eye(3)
    c = offline_cluster(D, 2)
    assert c.centers[0] == 0 and c.centers[1] == 1


def test_centers_distinct_on_duplicated_points():
    D = np.zeros((4, 4))
    c = offline_cluster(D, 3)
    assert len(set(c.centers)) == 3


def test_sequential_single_linkage_growth():
    # Point 3 is nearest to point 2, which joins cluster of center 0 first;
    # single linkage to current members then pulls 3 the same way even though
    # point 3 is nearer to center 4 than to center 0.
    #      0    1     2     3    4
    D = np.array(
        [
            [0.0, 10.0, 1.0, 6.0, 9.0],
            [10.0, 0.0, 9.5, 8.0, 2.0],
            [1.0, 9.5, 0.0, 1.5, 9.0],
            [6.0, 8.0, 1.5, 0.0, 5.0],
            [9.0, 2.0, 9.0, 5.0, 0.0],
        ]
    )
    c = offline_cluster(D, 2)
    assert c.labels[2] == c.labels[0]
    assert c.labels[3] == c.labels[0]  # via member 2, not via center distance


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_separation_recovery(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    kappa = int(rng.integers(1, n + 1))
    # random surjective labeling onto kappa groups
    labels = np.concatenate([np.arange(kappa), rng.integers(0, kappa, size=n - kappa)])
    rng.shuffle(labels)
    D = planted_matrix(rng, labels, intra_max=0.9, inter_min=1.0)
    c = offline_cluster(D, kappa)
    assert c.as_partition() == brute_force_best_separated(D, labels)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_permutation_equivariance_on_separated_data(seed):
    # The sequential member-joining assignment makes arbitrary instances
    # order-sensitive; on separated planted data the output partition is
    # uniquely determined, so permuting indexes must permute it exactly.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 10))
    kappa = int(rng.integers(1, n + 1))
    labels = np.concatenate([np.arange(kappa), rng.integers(0, kappa, size=n - kappa)])
    rng.shuffle(labels)
    D = planted_matrix(rng, labels, intra_max=0.9, inter_min=1.0)
    perm = rng.permutation(n)
    c1 = offline_cluster(D, kappa)
    c2 = offline_cluster(D[np.ix_(perm, perm)], kappa)
    relabeled = frozenset(
        frozenset(int(perm[i]) for i in part) for part in c2.as_partition()
    )
    assert relabeled == c1.as_partition()


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_monotone_transform_invariance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 10))
    kappa = int(rng.integers(1, n + 1))
    D = dist_matrix(rng.uniform(0, 50, size=n))
    transformed = np.where(D > 0, np.log1p(D) ** 1.5, 0.0)
    a = offline_cluster(D, kappa)
    b = offline_cluster(transformed, kappa)
    assert a.as_partition() == b.as_partition()
    assert a.centers == b.centers


@st.composite
def tied_matrices(draw):
    """A symmetric zero-diagonal matrix of small integers, so ties are common, and a kappa.

    Entries may be negative, so the farthest pair can lie below every diagonal zero.
    """
    n = draw(st.integers(1, 40))
    kappa = draw(st.integers(1, min(n, 7)))
    size = n * (n - 1) // 2
    upper = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
    D = np.zeros((n, n))
    D[np.triu_indices(n, 1)] = upper
    return D + D.T, kappa


@settings(max_examples=200, deadline=None)
@given(tied_matrices())
def test_running_minimum_matches_memberwise_assignment(case):
    D, kappa = case
    got = offline_cluster(D, kappa)
    want = memberwise_offline_cluster(D, kappa)
    assert np.array_equal(got.labels, want.labels)
    assert got.centers == want.centers


def test_clustering_members_and_partition():
    c = Clustering(kappa=3, labels=np.array([0, 1, 0, 2]), centers=(0, 1, 3))
    assert c.members(0).tolist() == [0, 2]
    assert c.as_partition() == frozenset(
        {frozenset({0, 2}), frozenset({1}), frozenset({3})}
    )
