import numpy as np
import pytest
from hypothesis import given, strategies as st

from covclust import HurstDomainError, HurstFunction


def test_constant_evaluates_everywhere():
    f = HurstFunction.constant(0.3)
    assert f(0.0) == 0.3
    assert f(1e9) == 0.3


def test_monotonic_endpoints():
    f = HurstFunction.monotonic(0.4, 100.0)
    assert f(0.0) == pytest.approx(0.5)
    assert f(100.0) == pytest.approx(0.9)
    assert f(50.0) == pytest.approx(0.7)


def test_periodic_peak():
    f = HurstFunction.periodic(-0.4, 100.0)
    assert f(50.0) == pytest.approx(0.1)
    assert f(0.0) == pytest.approx(0.5)
    assert f(100.0) == pytest.approx(0.5)


def test_domain_checked():
    f = HurstFunction.monotonic(0.2, 10.0)
    with pytest.raises(HurstDomainError):
        f(-0.5)
    with pytest.raises(HurstDomainError):
        f(10.5)


def test_range_violation_raises():
    # slope steep enough to leave (0, 1) inside the domain
    f = HurstFunction.monotonic(0.6, 1.0)
    with pytest.raises(HurstDomainError):
        f(1.0)


def test_constant_out_of_range_rejected():
    with pytest.raises(HurstDomainError):
        HurstFunction.constant(1.0)
    with pytest.raises(HurstDomainError):
        HurstFunction.constant(0.0)


def test_tabulated_by_index():
    f = HurstFunction.tabulated([0.2, 0.5, 0.8])
    with pytest.raises(TypeError):
        f(0.5)


def test_tabulated_values_checked():
    with pytest.raises(HurstDomainError):
        HurstFunction.tabulated([0.2, 1.1])


def test_values_on_grid():
    f = HurstFunction.monotonic(0.4, 1.0)
    grid = np.array([0.0, 0.5, 1.0])
    np.testing.assert_allclose(f.values_on(grid), [0.5, 0.7, 0.9])


def test_values_on_tabulated_length_mismatch():
    f = HurstFunction.tabulated([0.2, 0.5])
    with pytest.raises(IndexError):
        f.values_on(np.arange(3.0))


def test_hashable_for_caching():
    a = HurstFunction.monotonic(0.2, 1.0)
    b = HurstFunction.monotonic(0.2, 1.0)
    assert a == b and hash(a) == hash(b)


@given(
    h=st.floats(-0.49, 0.49),
    frac=st.floats(0.0, 1.0),
    q=st.floats(0.1, 1000.0),
)
def test_functional_variants_stay_in_unit_interval(h, frac, q):
    t = frac * q
    for f in (HurstFunction.monotonic(h, q), HurstFunction.periodic(h, q)):
        assert 0.0 < f(t) < 1.0
