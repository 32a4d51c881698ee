import numpy as np
import pytest
from hypothesis import given, strategies as st

from covclust import HurstDomainError, HurstFunction

from naive_oracles import naive_hurst


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


def test_direct_construction_checks_every_field_in_order():
    # the kind first, then a constant level, then the horizon, however built
    with pytest.raises(ValueError, match="^unknown Hurst variant 'ramp'$") as exc:
        HurstFunction("ramp", 1.5, 0.0)
    assert not isinstance(exc.value, HurstDomainError)
    with pytest.raises(HurstDomainError, match=r"^constant Hurst level: value 1.5 is outside \(0, 1\)$"):
        HurstFunction("constant", 1.5, 0.0)
    with pytest.raises(HurstDomainError, match="^horizon q must be positive, got 0.0$"):
        HurstFunction("monotonic", 0.3, 0.0)
    with pytest.raises(HurstDomainError, match="^horizon q must be positive, got nan$"):
        HurstFunction("periodic", 0.3, float("nan"))
    with pytest.raises(HurstDomainError, match="^horizon q must be positive, got nan$"):
        HurstFunction.monotonic(0.3, float("nan"))
    with pytest.raises(ValueError, match="^unknown Hurst variant 'ramp'$"):
        HurstFunction("ramp")


def test_values_on_grid():
    f = HurstFunction.monotonic(0.4, 1.0)
    grid = np.array([0.0, 0.5, 1.0])
    np.testing.assert_allclose(f.values_on(grid), [0.5, 0.7, 0.9])


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


AMPLITUDES = np.linspace(-0.49, 0.49, 15)
PROFILES = {
    "constant": lambda a, q: HurstFunction.constant(0.5 + a),
    "monotonic": HurstFunction.monotonic,
    "periodic": HurstFunction.periodic,
}


@pytest.mark.parametrize("kind", sorted(PROFILES))
@pytest.mark.parametrize("q", [0.3, 1.0, 7.0])
@pytest.mark.parametrize("n", [20, 305, 2000])
def test_values_on_bitwise_matches_scalar_formula(kind, q, n):
    # a sampling grid t_i = i * (q / n) below q, and a grid through both ends of [0, q]
    grids = (np.arange(1, n) * (q / n), np.linspace(0.0, q, n))
    for a in AMPLITUDES:
        f = PROFILES[kind](a, q)
        for times in grids:
            expected = np.array([naive_hurst(f, t) for t in times])
            assert f.values_on(times).tobytes() == expected.tobytes()
            assert f(times[-1]) == expected[-1]


def _first_error(f, times):
    for t in times:
        try:
            naive_hurst(f, t)
        except HurstDomainError as exc:
            return str(exc)
    raise AssertionError("the grid has no offending instant")


@pytest.mark.parametrize("f, times", [
    (HurstFunction.monotonic(0.2, 10.0), [0.0, 5.0, 10.5, -0.5]),
    (HurstFunction.periodic(0.2, 3.0), [1.0, -0.25, 4.0]),
    (HurstFunction.monotonic(0.6, 1.0), [0.5, 0.9, 1.0]),
    (HurstFunction.periodic(-0.6, 1.0), [0.1, 0.5, 2.0]),
    (HurstFunction.monotonic(0.6, 1.0), [0.9, 1.5]),  # value fails before the time does
    (HurstFunction.monotonic(0.6, 1.0), [0.1, 1.5]),  # time checked before value at one instant
    (HurstFunction.monotonic(0.2, 1.0), [0.5, np.nan]),
    (HurstFunction.periodic(0.2, 1.0), [np.inf]),
])
def test_values_on_reports_first_offending_instant(f, times):
    message = _first_error(f, times)
    with pytest.raises(HurstDomainError) as exc:
        f.values_on(times)
    assert str(exc.value) == message
