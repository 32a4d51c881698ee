import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from covclust import (
    SamplePath,
    dissimilarity_matrix,
    offline_cluster,
    online_cluster,
)

from naive_oracles import prefixwise_online_cluster
from test_offline import tied_matrices


def make_paths(seed, count, n=12):
    rng = np.random.default_rng(seed)
    return tuple(SamplePath(f"p{i}", rng.standard_normal(n)) for i in range(count))


def planted_matrix(rng, labels, intra_max, inter_min):
    n = len(labels)
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            lo, hi = (0.0, intra_max) if labels[i] == labels[j] else (inter_min, 2 * inter_min)
            D[i, j] = D[j, i] = rng.uniform(lo, hi)
    return D


def partition(c):
    return c.as_partition()


def test_single_prefix_collapses_to_offline():
    D = dissimilarity_matrix(make_paths(0, 4))
    kappa = 4
    assert partition(online_cluster(D, kappa)) == partition(offline_cluster(D, kappa))


def test_too_few_paths():
    with pytest.raises(ValueError, match="^3 paths are fewer than kappa=4$"):
        online_cluster(np.zeros((3, 3)), 4)
    # below 1, kappa is checked against D's size before any prefix is cut
    for kappa in (0, -1):
        with pytest.raises(ValueError, match=f"^kappa={kappa} out of range for 3 points$"):
            online_cluster(np.zeros((3, 3)), kappa)


def test_size_comes_from_a_square_matrix():
    # D alone gives the number of paths: one label per row, and no other shape
    assert online_cluster(np.zeros((6, 6)), 2).labels.size == 6
    with pytest.raises(ValueError, match="must be square"):
        online_cluster(np.zeros((3, 6)), 2)


def test_deterministic():
    D = dissimilarity_matrix(make_paths(2, 6))
    a = online_cluster(D, 2)
    b = online_cluster(D, 2)
    assert np.array_equal(a.labels, b.labels)
    assert a.centers == b.centers


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_planted_separation_recovery(seed):
    rng = np.random.default_rng(seed)
    labels = np.array([0, 1, 0, 1, 0, 1])
    D = planted_matrix(rng, labels, intra_max=0.5, inter_min=1.0)
    c = online_cluster(D, 2)
    assert partition(c) == frozenset(
        {frozenset({0, 2, 4}), frozenset({1, 3, 5})}
    )


def test_eta_zero_fallback():
    # all paths identical: every gamma is 0, eta = 0
    c = online_cluster(np.zeros((3, 3)), 2)
    assert c.labels.size == 3
    assert len(set(c.labels.tolist())) <= 2


def test_candidate_stability_on_separated_data():
    # once all structures have appeared, the candidate set is constant in j
    rng = np.random.default_rng(9)
    labels = np.array([0, 1, 0, 1, 0, 1, 0, 1])
    D = planted_matrix(rng, labels, intra_max=0.4, inter_min=1.0)
    cands = []
    for j in range(2, 9):
        pre = offline_cluster(D[:j, :j], 2)
        cands.append(tuple(sorted(int(pre.members(k).min()) for k in range(2))))
    assert all(c == (0, 1) for c in cands)


def test_ragged_snapshot():
    rng = np.random.default_rng(5)
    paths = tuple(
        SamplePath(f"p{i}", rng.standard_normal(n)) for i, n in enumerate((8, 12, 20, 9))
    )
    c = online_cluster(dissimilarity_matrix(paths), 2)
    assert c.labels.size == 4


@settings(max_examples=200, deadline=None)
@given(tied_matrices())
@example((np.zeros((6, 6)), 3))
def test_vote_matches_prefixwise_oracle(case):
    D, kappa = case
    got = online_cluster(D, kappa)
    want = prefixwise_online_cluster(D, kappa)
    assert np.array_equal(got.labels, want.labels)
    assert got.centers == want.centers
