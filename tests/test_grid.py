import numpy as np
import pytest

from fracheat import (
    CoefficientSeries,
    MeasurementSeries,
    ProblemData,
    Trajectory,
    make_grid,
)


def test_basic_grid_arithmetic():
    g = make_grid(1, 1, 100, 100, 0.5)
    assert g.h == pytest.approx(0.01)
    assert g.tau == pytest.approx(0.01)
    assert g.interior_dim == 99
    assert g.interior_x().size == 99
    assert abs(g.h * g.N - g.l) <= 1e-12 * g.l


def test_smallest_legal_grid():
    g = make_grid(1, 1, 2, 1, 0.5)
    assert g.interior_dim == 1
    assert g.interior_x().tolist() == [0.5]


@pytest.mark.parametrize("s", [1.2, 1.0, 0.0, -0.3])
def test_fractional_order_out_of_range(s):
    with pytest.raises(ValueError):
        make_grid(1, 1, 100, 100, s)


@pytest.mark.parametrize("kwargs", [
    dict(l=1, T=1, N=1, M=10, s=0.5),
    dict(l=1, T=1, N=10, M=0, s=0.5),
    dict(l=0.0, T=1, N=10, M=10, s=0.5),
    dict(l=1, T=-2.0, N=10, M=10, s=0.5),
])
def test_rejects_nonpositive_sizes(kwargs):
    with pytest.raises(ValueError):
        make_grid(**kwargs)


@pytest.mark.parametrize("field, value", [
    ("l", float("nan")), ("l", float("inf")), ("T", float("nan")), ("T", float("inf")),
    ("T", -float("inf")),
])
def test_rejects_non_finite_sizes(field, value):
    kwargs = dict(l=1.0, T=1.0, N=10, M=10, s=0.5)
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"^{field} must be finite and positive"):
        make_grid(**kwargs)


def test_rejects_a_step_that_underflows():
    with pytest.raises(ValueError, match="^tau must be finite and positive, got 0.0"):
        make_grid(1, 5e-324, 10, 4, 0.5)
    assert make_grid(1, 5e-324, 10, 1, 0.5).tau == 5e-324


def test_grid_is_deterministic_and_immutable():
    a = make_grid(1, 2, 8, 4, 0.3)
    b = make_grid(1, 2, 8, 4, 0.3)
    assert a == b
    with pytest.raises(AttributeError):
        a.N = 9


def test_interior_index_round_trip():
    # spec index i = 1..N-1 maps to storage 0..N-2 and back via x_i = i*h
    g = make_grid(1, 1, 17, 3, 0.7)
    x = g.interior_x()
    for store in range(g.interior_dim):
        i = store + 1
        assert x[store] == pytest.approx(i * g.h, abs=1e-15)
        assert int(round(x[store] / g.h)) - 1 == store


def test_time_axes():
    g = make_grid(1, 2, 4, 8, 0.5)
    assert g.times()[0] == 0.0
    assert g.times()[-1] == pytest.approx(2.0)
    mids = g.midpoint_times()
    assert mids.size == 8
    assert mids[0] == pytest.approx(g.tau / 2)


def test_measurement_series_validation():
    m = MeasurementSeries(values=[1.0, 2.0], provenance="exact-analytic")
    assert len(m) == 2
    assert not m.values.flags.writeable
    with pytest.raises(ValueError):
        MeasurementSeries(values=[1.0, np.nan])


def test_coefficient_series_validation():
    c = CoefficientSeries(values=np.ones(3))
    assert len(c) == 3
    with pytest.raises(ValueError):
        CoefficientSeries(values=[np.inf])


def test_trajectory_validation():
    t = Trajectory(states=np.zeros((3, 4)))
    assert len(t) == 3
    assert t.final.shape == (4,)
    assert t.matches_grid(make_grid(1, 1, 5, 2, 0.5))
    with pytest.raises(ValueError):
        Trajectory(states=np.zeros(4))
    with pytest.raises(ValueError):
        Trajectory(states=np.full((2, 2), np.nan))
    # a route's coordinates: only adopted, in place, and checked like the states:
    # shape, NaN and either infinity, wherever it sits
    assert t.route is None
    with pytest.raises(TypeError):
        Trajectory(states=np.zeros((3, 4)), route=(None, np.ones((3, 4))))
    states, coordinates = np.zeros((3, 4)), np.ones((3, 4))
    adopted = Trajectory.adopt(states, (None, coordinates))
    assert adopted.states is states and adopted.route[1] is coordinates
    assert not states.flags.writeable and not coordinates.flags.writeable
    with pytest.raises(ValueError, match="route coordinates: expected shape"):
        Trajectory.adopt(np.zeros((3, 4)), (None, np.zeros((3, 3))))
    for bad in (np.nan, np.inf, -np.inf):
        broken = np.zeros((3, 4))
        broken[1, 2] = bad
        with pytest.raises(ValueError, match="^states: non-finite"):
            Trajectory(states=broken)
        with pytest.raises(ValueError, match="^route coordinates: non-finite"):
            Trajectory.adopt(np.zeros((3, 4)), (None, broken))


def test_problem_data_length_checks():
    with pytest.raises(ValueError):
        ProblemData(phi=np.zeros(4), forcing=lambda t: np.zeros(4), weight=np.zeros(5))
    data = ProblemData(phi=np.zeros(4), forcing=lambda t: np.zeros(4), weight=np.ones(4))
    assert not data.phi.flags.writeable
    assert not data.weight.flags.writeable
